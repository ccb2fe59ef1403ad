// Malformed-input coverage for the PAST payload codecs: strict-prefix
// truncation sweeps, trailing garbage, and absurd length prefixes must all be
// rejected. Complements messages_test.cc (valid round trips) and
// tests/fuzz/fuzz_storage_messages.cc (deterministic mutation).
#include "src/storage/messages.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/crypto/sha256.h"
#include "src/storage/smartcard.h"

namespace past {
namespace {

class StorageMalformedTest : public ::testing::Test {
 protected:
  StorageMalformedTest() : broker_(3, BrokerOptions{}), rng_(5) {
    card_ = std::move(broker_.IssueCard(1 << 20, 1 << 20)).value();
  }

  FileCertificate MakeCert() {
    Bytes content = ToBytes("content");
    auto digest = Sha256::Hash(ByteSpan(content.data(), content.size()));
    return std::move(card_->IssueFileCertificate(
                         "f", content.size(),
                         ByteSpan(digest.data(), digest.size()), 3,
                         rng_.NextU64(), 7))
        .value();
  }

  NodeDescriptor RandomDesc() {
    return NodeDescriptor{rng_.NextU128(),
                          static_cast<NodeAddr>(rng_.UniformU64(99))};
  }

  Broker broker_;
  std::unique_ptr<Smartcard> card_;
  Rng rng_;
};

// Every strict prefix of a valid encoding must fail, and the full buffer
// plus one trailing byte must fail (payload decoding requires AtEnd).
template <typename P>
void ExpectPrefixAndSuffixRejected(const P& payload) {
  Bytes wire = payload.Encode();
  for (size_t len = 0; len < wire.size(); ++len) {
    P out;
    EXPECT_FALSE(P::Decode(SharedBytes::Copy(ByteSpan(wire.data(), len)), &out))
        << "prefix of length " << len << " of " << wire.size() << " decoded";
  }
  P ok;
  EXPECT_TRUE(P::Decode(SharedBytes::Copy(wire), &ok));
  wire.push_back(0x5a);
  P out;
  EXPECT_FALSE(P::Decode(SharedBytes::Copy(wire), &out));
}

TEST_F(StorageMalformedTest, InsertRequestPrefixSweep) {
  InsertRequestPayload p;
  p.cert = MakeCert();
  p.content = rng_.RandomBytes(32);
  p.client = RandomDesc();
  ExpectPrefixAndSuffixRejected(p);
}

TEST_F(StorageMalformedTest, StoreReceiptPrefixSweep) {
  StoreReceiptPayload p;
  p.receipt = card_->IssueStoreReceipt(MakeCert().file_id, true, 99);
  ExpectPrefixAndSuffixRejected(p);
}

TEST_F(StorageMalformedTest, LookupReplyPrefixSweep) {
  LookupReplyPayload p;
  p.cert = MakeCert();
  p.content = rng_.RandomBytes(16);
  p.from_cache = true;
  p.replier = RandomDesc();
  ExpectPrefixAndSuffixRejected(p);
}

TEST_F(StorageMalformedTest, AuditResponsePrefixSweep) {
  AuditResponsePayload p;
  p.file_id = MakeCert().file_id;
  p.nonce = 123;
  p.has_file = true;
  p.digest = rng_.RandomBytes(32);
  ExpectPrefixAndSuffixRejected(p);
}

TEST_F(StorageMalformedTest, AbsurdContentLengthRejected) {
  // Corrupt the content-blob length prefix of an InsertRequest to claim
  // ~4 GiB; the bounds-checked reader must fail instead of allocating.
  InsertRequestPayload p;
  p.cert = MakeCert();
  p.content = rng_.RandomBytes(8);
  p.client = RandomDesc();
  Bytes wire = p.Encode();

  InsertRequestPayload small = p;
  small.content = SharedBytes();
  Bytes wire_small = small.Encode();
  ASSERT_EQ(wire.size(), wire_small.size() + 8);
  // The encodings diverge inside the content length prefix.
  size_t diverge = 0;
  while (diverge < wire_small.size() && wire[diverge] == wire_small[diverge]) {
    ++diverge;
  }
  size_t count_start = diverge < 3 ? 0 : diverge - 3;
  for (size_t i = count_start; i < count_start + 4 && i < wire.size(); ++i) {
    wire[i] = 0xff;
  }
  InsertRequestPayload out;
  EXPECT_FALSE(
      InsertRequestPayload::Decode(SharedBytes::Copy(wire), &out));
}

TEST_F(StorageMalformedTest, GarbageBuffersRejected) {
  Rng garbage_rng(77);
  for (size_t size : {size_t{1}, size_t{13}, size_t{64}, size_t{257}}) {
    Bytes garbage = garbage_rng.RandomBytes(size);
    InsertRequestPayload insert;
    EXPECT_FALSE(InsertRequestPayload::Decode(SharedBytes::Copy(garbage), &insert));
    ReclaimRequestPayload reclaim;
    EXPECT_FALSE(ReclaimRequestPayload::Decode(
        ByteSpan(garbage.data(), garbage.size()), &reclaim));
  }
}

}  // namespace
}  // namespace past
