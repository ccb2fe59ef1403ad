#include "src/storage/messages.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/crypto/sha256.h"
#include "src/storage/smartcard.h"

namespace past {
namespace {

class StorageMessagesTest : public ::testing::Test {
 protected:
  StorageMessagesTest() : broker_(3, BrokerOptions{}), rng_(5) {
    card_ = std::move(broker_.IssueCard(1 << 20, 1 << 20)).value();
  }

  FileCertificate MakeCert() {
    Bytes content = ToBytes("content");
    auto digest = Sha256::Hash(ByteSpan(content.data(), content.size()));
    return std::move(card_->IssueFileCertificate(
                         "f", content.size(), ByteSpan(digest.data(), digest.size()),
                         3, rng_.NextU64(), 7))
        .value();
  }

  NodeDescriptor RandomDesc() {
    return NodeDescriptor{rng_.NextU128(), static_cast<NodeAddr>(rng_.UniformU64(99))};
  }

  Broker broker_;
  std::unique_ptr<Smartcard> card_;
  Rng rng_;
};

TEST_F(StorageMessagesTest, InsertRequestRoundTrip) {
  InsertRequestPayload p;
  p.cert = MakeCert();
  p.content = rng_.RandomBytes(64);
  p.client = RandomDesc();
  InsertRequestPayload out;
  ASSERT_TRUE(InsertRequestPayload::Decode(p.Encode(), &out));
  EXPECT_EQ(out.cert.file_id, p.cert.file_id);
  EXPECT_EQ(out.content, p.content);
  EXPECT_EQ(out.client, p.client);
  EXPECT_TRUE(out.cert.Verify(broker_.public_key()));
}

TEST_F(StorageMessagesTest, StoreReplicaRoundTrip) {
  StoreReplicaPayload p;
  p.cert = MakeCert();
  p.content = rng_.RandomBytes(16);
  p.client = RandomDesc();
  p.divert_allowed = false;
  StoreReplicaPayload out;
  ASSERT_TRUE(StoreReplicaPayload::Decode(p.Encode(), &out));
  EXPECT_FALSE(out.divert_allowed);
  EXPECT_EQ(out.cert.file_id, p.cert.file_id);
}

TEST_F(StorageMessagesTest, DivertMessagesRoundTrip) {
  DivertStorePayload p;
  p.cert = MakeCert();
  p.content = rng_.RandomBytes(8);
  p.client = RandomDesc();
  p.primary = RandomDesc();
  DivertStorePayload out;
  ASSERT_TRUE(DivertStorePayload::Decode(p.Encode(), &out));
  EXPECT_EQ(out.primary, p.primary);

  DivertResultPayload res;
  res.file_id = p.cert.file_id;
  res.accepted = true;
  res.client = p.client;
  DivertResultPayload res_out;
  ASSERT_TRUE(DivertResultPayload::Decode(res.Encode(), &res_out));
  EXPECT_TRUE(res_out.accepted);
  EXPECT_EQ(res_out.file_id, res.file_id);
}

TEST_F(StorageMessagesTest, ReceiptAndNackRoundTrip) {
  StoreReceiptPayload p;
  p.receipt = card_->IssueStoreReceipt(MakeCert().file_id, true, 9);
  StoreReceiptPayload out;
  ASSERT_TRUE(StoreReceiptPayload::Decode(p.Encode(), &out));
  EXPECT_TRUE(out.receipt.Verify(broker_.public_key()));
  EXPECT_TRUE(out.receipt.diverted);

  StoreNackPayload nack;
  nack.file_id = p.receipt.file_id;
  nack.reason = static_cast<uint8_t>(StatusCode::kInsufficientStorage);
  StoreNackPayload nack_out;
  ASSERT_TRUE(StoreNackPayload::Decode(nack.Encode(), &nack_out));
  EXPECT_EQ(nack_out.reason, nack.reason);
}

TEST_F(StorageMessagesTest, LookupMessagesRoundTrip) {
  LookupRequestPayload req;
  req.file_id = MakeCert().file_id;
  req.client = RandomDesc();
  LookupRequestPayload req_out;
  ASSERT_TRUE(LookupRequestPayload::Decode(req.Encode(), &req_out));
  EXPECT_EQ(req_out.file_id, req.file_id);

  LookupReplyPayload reply;
  reply.cert = MakeCert();
  reply.content = rng_.RandomBytes(32);
  reply.from_cache = true;
  reply.replier = RandomDesc();
  LookupReplyPayload reply_out;
  ASSERT_TRUE(LookupReplyPayload::Decode(reply.Encode(), &reply_out));
  EXPECT_TRUE(reply_out.from_cache);
  EXPECT_EQ(reply_out.content, reply.content);
}

TEST_F(StorageMessagesTest, FetchMessagesRoundTrip) {
  FetchRequestPayload req;
  req.file_id = MakeCert().file_id;
  req.client = RandomDesc();
  req.for_lookup = true;
  FetchRequestPayload req_out;
  ASSERT_TRUE(FetchRequestPayload::Decode(req.Encode(), &req_out));
  EXPECT_TRUE(req_out.for_lookup);

  FetchReplyPayload reply;
  reply.found = true;
  reply.cert = MakeCert();
  reply.content = rng_.RandomBytes(10);
  FetchReplyPayload reply_out;
  ASSERT_TRUE(FetchReplyPayload::Decode(reply.Encode(), &reply_out));
  EXPECT_TRUE(reply_out.found);
  EXPECT_EQ(reply_out.cert.file_id, reply.cert.file_id);
}

TEST_F(StorageMessagesTest, ReclaimMessagesRoundTrip) {
  ReclaimRequestPayload req;
  req.cert = card_->IssueReclaimCertificate(MakeCert().file_id, 5);
  req.client = RandomDesc();
  ReclaimRequestPayload req_out;
  ASSERT_TRUE(ReclaimRequestPayload::Decode(req.Encode(), &req_out));
  EXPECT_TRUE(req_out.cert.Verify(broker_.public_key()));

  ReclaimReceiptPayload receipt;
  receipt.receipt = card_->IssueReclaimReceipt(req.cert.file_id, 100, 6);
  ReclaimReceiptPayload receipt_out;
  ASSERT_TRUE(ReclaimReceiptPayload::Decode(receipt.Encode(), &receipt_out));
  EXPECT_EQ(receipt_out.receipt.bytes_reclaimed, 100u);
}

TEST_F(StorageMessagesTest, CacheAndMaintenanceRoundTrip) {
  CachePushPayload push;
  push.cert = MakeCert();
  push.content = rng_.RandomBytes(5);
  CachePushPayload push_out;
  ASSERT_TRUE(CachePushPayload::Decode(push.Encode(), &push_out));
  EXPECT_EQ(push_out.content, push.content);

  ReplicaNotifyPayload notify;
  notify.file_id = push.cert.file_id;
  notify.file_size = 4242;
  ReplicaNotifyPayload notify_out;
  ASSERT_TRUE(ReplicaNotifyPayload::Decode(notify.Encode(), &notify_out));
  EXPECT_EQ(notify_out.file_size, 4242u);
}

TEST_F(StorageMessagesTest, AuditMessagesRoundTrip) {
  AuditChallengePayload ch;
  ch.file_id = MakeCert().file_id;
  ch.nonce = 0xdeadbeef;
  AuditChallengePayload ch_out;
  ASSERT_TRUE(AuditChallengePayload::Decode(ch.Encode(), &ch_out));
  EXPECT_EQ(ch_out.nonce, 0xdeadbeefu);

  AuditResponsePayload resp;
  resp.file_id = ch.file_id;
  resp.nonce = ch.nonce;
  resp.has_file = true;
  resp.digest = rng_.RandomBytes(32);
  AuditResponsePayload resp_out;
  ASSERT_TRUE(AuditResponsePayload::Decode(resp.Encode(), &resp_out));
  EXPECT_TRUE(resp_out.has_file);
  EXPECT_EQ(resp_out.digest, resp.digest);
}

TEST_F(StorageMessagesTest, TruncationRejected) {
  InsertRequestPayload p;
  p.cert = MakeCert();
  p.content = rng_.RandomBytes(20);
  p.client = RandomDesc();
  Bytes wire = p.Encode();
  for (size_t len = 0; len < wire.size(); len += 3) {
    InsertRequestPayload out;
    EXPECT_FALSE(
        InsertRequestPayload::Decode(SharedBytes::Copy(ByteSpan(wire.data(), len)), &out));
  }
}

TEST_F(StorageMessagesTest, TrailingGarbageRejected) {
  LookupRequestPayload req;
  req.file_id = MakeCert().file_id;
  req.client = RandomDesc();
  Bytes wire = req.Encode();
  wire.push_back(0);
  LookupRequestPayload out;
  EXPECT_FALSE(LookupRequestPayload::Decode(wire, &out));
}

TEST_F(StorageMessagesTest, FuzzDecodersNeverCrash) {
  Rng fuzz(31);
  for (int trial = 0; trial < 1000; ++trial) {
    Bytes wire = fuzz.RandomBytes(fuzz.UniformU64(200));
    InsertRequestPayload a;
    (void)InsertRequestPayload::Decode(SharedBytes::Copy(wire), &a);
    LookupReplyPayload b;
    (void)LookupReplyPayload::Decode(SharedBytes::Copy(wire), &b);
    ReclaimRequestPayload c;
    (void)ReclaimRequestPayload::Decode(wire, &c);
    AuditResponsePayload d;
    (void)AuditResponsePayload::Decode(wire, &d);
  }
}

}  // namespace
}  // namespace past
