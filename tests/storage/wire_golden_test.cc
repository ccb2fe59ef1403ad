// Golden wire and log formats: the exact bytes a PAST node puts on the wire
// and in its log for each content-carrying message, pinned as (size,
// SHA-256) pairs recorded from the codec before content became shared
// slices. Every case carries 70 KiB of content with fields after the blob
// where the format has them, so an encoder that sizes or orders its buffer
// differently changes a digest. Frames include the 24-byte frame header and
// its CRC32C; the log case is the whole segment file (header + one record
// with its CRC), so a state directory written by either codec reopens under
// the other.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/crypto/sha256.h"
#include "src/diskstore/log_format.h"
#include "src/net/frame.h"
#include "src/pastry/messages.h"
#include "src/storage/disk_backend.h"
#include "src/storage/messages.h"
#include "src/storage/smartcard.h"
#include "tests/diskstore/temp_dir.h"

namespace past {
namespace {

struct Golden {
  const char* name;
  size_t size;
  const char* sha256;
};

const Golden kGolden[] = {
    {"insert_request_route_frame", 72041, "36be571b9f38c6b092092a8c7af367e7a76c5eb3dd476d1c50e3c45eed811968"},
    {"store_replica_direct_frame", 71962, "1215db11429edf87ea305c974ead8be2154f63c88c2f37e2176e99e9b784c8e2"},
    {"divert_store_direct_frame", 71981, "518b53716eb7c34f6e2631085e68d15e978083e6ed4926b8cebd82a93c7429eb"},
    {"lookup_reply_direct_frame", 71962, "c55562cc2ab343c6d48a597be4f2ab6bbf790a7e300363fc3c03c8c3cd0cf3e9"},
    {"fetch_reply_direct_frame", 71942, "643a877493298a243e71087cfe1cf952a0e589497326da4793c822950288340f"},
    {"cache_push_direct_frame", 71941, "18291c60433ddcf32d620e2e32091519dd79ca2b3bbf60b17dddd7bea8a73e6f"},
    {"disk_backend_log_segment", 71953, "b9e281d198bc6ac05b374623ddbee62c7613b0c08151d830134624eeb395581d"},
};

// The cases in kGolden order, built deterministically (seeded broker and
// ids, fixed content); the log case writes its segment under `dir`.
std::vector<std::pair<std::string, Bytes>> GoldenCases(const std::string& dir) {
  Broker broker(7, BrokerOptions{});
  std::unique_ptr<Smartcard> card =
      std::move(broker.IssueCard(64ull << 20, 64ull << 20)).value();
  Bytes content(70 * 1024);
  for (size_t i = 0; i < content.size(); ++i) {
    content[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  auto digest = Sha256::Hash(ByteSpan(content.data(), content.size()));
  FileCertificate cert =
      std::move(card->IssueFileCertificate("golden", content.size(),
                                           ByteSpan(digest.data(), digest.size()),
                                           3, 0x5a17, 1234))
          .value();
  Rng rng(5);
  const NodeDescriptor client{rng.NextU128(), 17};
  const NodeDescriptor primary{rng.NextU128(), 23};
  const NodeDescriptor replier{rng.NextU128(), 29};

  std::vector<std::pair<std::string, Bytes>> out;
  auto direct = [&](const std::string& name, PastOp op, const Bytes& payload) {
    Bytes wire = EncodeAppDirect(primary, static_cast<uint32_t>(op),
                                 ByteSpan(payload.data(), payload.size()));
    out.emplace_back(name, EncodeFrame(primary.addr, replier.addr,
                                       ByteSpan(wire.data(), wire.size())));
  };

  InsertRequestPayload insert;
  insert.cert = cert;
  insert.content = SharedBytes::Copy(content);
  insert.client = client;
  RouteMsg route;
  route.key = cert.file_id.Top128();
  route.source = client;
  route.app_type = static_cast<uint32_t>(PastOp::kInsertRequest);
  route.seq = 42;
  route.parent_span = 9;
  route.hops = 1;
  route.distance = 12.5;
  route.path = {client.addr, primary.addr};
  route.trace = {RouteHop{client.addr, RouteRule::kRoutingTable, 12.5, 1000}};
  route.payload = insert.Encode();
  Bytes route_wire = EncodeMessage(route);
  out.emplace_back("insert_request_route_frame",
                   EncodeFrame(client.addr, primary.addr,
                               ByteSpan(route_wire.data(), route_wire.size())));

  StoreReplicaPayload replica;
  replica.cert = cert;
  replica.content = SharedBytes::Copy(content);
  replica.client = client;
  replica.divert_allowed = true;
  direct("store_replica_direct_frame", PastOp::kStoreReplica, replica.Encode());

  DivertStorePayload divert;
  divert.cert = cert;
  divert.content = SharedBytes::Copy(content);
  divert.client = client;
  divert.primary = primary;
  direct("divert_store_direct_frame", PastOp::kDivertStore, divert.Encode());

  LookupReplyPayload reply;
  reply.cert = cert;
  reply.content = SharedBytes::Copy(content);
  reply.from_cache = true;
  reply.replier = replier;
  direct("lookup_reply_direct_frame", PastOp::kLookupReply, reply.Encode());

  FetchReplyPayload fetch;
  fetch.found = true;
  fetch.cert = cert;
  fetch.content = SharedBytes::Copy(content);
  direct("fetch_reply_direct_frame", PastOp::kFetchReply, fetch.Encode());

  CachePushPayload push;
  push.cert = cert;
  push.content = SharedBytes::Copy(content);
  direct("cache_push_direct_frame", PastOp::kCachePush, push.Encode());

  {
    std::unique_ptr<DiskBackend> backend =
        std::move(DiskBackend::Open(dir, DiskStoreOptions{})).value();
    StoredFile file;
    file.cert = cert;
    file.content = SharedBytes::Copy(content);
    file.diverted = true;
    file.diverted_from = primary;
    PAST_CHECK(backend->Put(std::move(file)) == StatusCode::kOk);
  }
  std::ifstream in(dir + "/" + SegmentFileName(1), std::ios::binary);
  Bytes segment((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  out.emplace_back("disk_backend_log_segment", segment);
  return out;
}

TEST(WireGoldenTest, EncodingsMatchRecordedBytes) {
  TempDir tmp;
  std::vector<std::pair<std::string, Bytes>> cases = GoldenCases(tmp.Sub("store"));
  ASSERT_EQ(cases.size(), std::size(kGolden));
  for (size_t i = 0; i < cases.size(); ++i) {
    const auto& [name, bytes] = cases[i];
    SCOPED_TRACE(name);
    EXPECT_EQ(name, kGolden[i].name);
    EXPECT_EQ(bytes.size(), kGolden[i].size);
    auto digest = Sha256::Hash(ByteSpan(bytes.data(), bytes.size()));
    EXPECT_EQ(HexEncode(ByteSpan(digest.data(), digest.size())), kGolden[i].sha256);
  }
}

// The golden frames decode back through the receive path: frame CRC, the
// Pastry envelope (the one owning copy), then the payload decoder slicing
// the content out of that copy.
TEST(WireGoldenTest, GoldenFramesDecodeWithSlicedContent) {
  TempDir tmp;
  for (const auto& [name, bytes] : GoldenCases(tmp.Sub("store"))) {
    if (name == "disk_backend_log_segment") {
      continue;
    }
    SCOPED_TRACE(name);
    FrameHeader header;
    ByteSpan body;
    ASSERT_EQ(DecodeFrame(bytes, 1u << 20, &header, &body), FrameError::kNone);
    Reader r(body);
    PastryMsgType type;
    ASSERT_TRUE(DecodeHeader(&r, &type));
    SharedBytes payload;
    if (type == PastryMsgType::kRoute) {
      RouteMsg msg;
      ASSERT_TRUE(DecodeBodyStrict(&r, &msg));
      payload = msg.payload;
      InsertRequestPayload insert;
      ASSERT_TRUE(InsertRequestPayload::Decode(payload, &insert));
      ASSERT_EQ(insert.content.size(), 70u * 1024);
      EXPECT_TRUE(payload.Contains(insert.content.data()));
      EXPECT_TRUE(insert.cert.MatchesContent(insert.content));
      continue;
    }
    ASSERT_EQ(type, PastryMsgType::kAppDirect);
    AppDirectMsg msg;
    ASSERT_TRUE(DecodeBodyStrict(&r, &msg));
    EXPECT_FALSE(msg.payload.data() >= body.data() &&
                 msg.payload.data() < body.data() + body.size())
        << "the Pastry payload must own its bytes, not alias the frame";
    SharedBytes content;
    switch (static_cast<PastOp>(msg.app_type)) {
      case PastOp::kStoreReplica: {
        StoreReplicaPayload p;
        ASSERT_TRUE(StoreReplicaPayload::Decode(msg.payload, &p));
        content = p.content;
        break;
      }
      case PastOp::kDivertStore: {
        DivertStorePayload p;
        ASSERT_TRUE(DivertStorePayload::Decode(msg.payload, &p));
        content = p.content;
        break;
      }
      case PastOp::kLookupReply: {
        LookupReplyPayload p;
        ASSERT_TRUE(LookupReplyPayload::Decode(msg.payload, &p));
        content = p.content;
        break;
      }
      case PastOp::kFetchReply: {
        FetchReplyPayload p;
        ASSERT_TRUE(FetchReplyPayload::Decode(msg.payload, &p));
        content = p.content;
        break;
      }
      case PastOp::kCachePush: {
        CachePushPayload p;
        ASSERT_TRUE(CachePushPayload::Decode(msg.payload, &p));
        content = p.content;
        break;
      }
      default:
        FAIL() << "unexpected op " << msg.app_type;
    }
    ASSERT_EQ(content.size(), 70u * 1024);
    EXPECT_TRUE(msg.payload.Contains(content.data()));
    EXPECT_EQ(content.owner_size(), msg.payload.size());
  }
}

// EncodeAppDirect (the fan-out encoder) and the generic message encoder
// produce the same bytes.
TEST(WireGoldenTest, EncodeAppDirectMatchesEncodeMessage) {
  AppDirectMsg msg;
  msg.source = NodeDescriptor{U128(3, 4), 99};
  msg.app_type = static_cast<uint32_t>(PastOp::kStoreReplica);
  Bytes payload(70 * 1024 + 3, 0x5c);
  msg.payload = SharedBytes::Copy(payload);
  EXPECT_EQ(EncodeMessage(msg), EncodeAppDirect(msg.source, msg.app_type, payload));
}

}  // namespace
}  // namespace past
