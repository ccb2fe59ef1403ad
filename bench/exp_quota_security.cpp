// E9 — The security architecture in action.
//
// HotOS text (Section 2.1): quotas bound each user's consumption; file
// certificates defeat forged inserts and en-route corruption; reclaim
// certificates stop unauthorized reclaims; random audits expose nodes that
// cheat on their contributed storage.
#include "bench/exp_util.h"

#include "src/crypto/sha256.h"

int main(int argc, char** argv) {
  using namespace past;
  ExpArgs args = ExpArgs::Parse(argc, argv);
  ExpJson json(args, "quota_security");
  PrintHeader("E9: quota enforcement, certificate checks, audits (60 nodes)",
              "quota blocks over-use; forged operations rejected; audits "
              "expose freeloaders");

  PastNetworkOptions options;
  options.overlay.seed = 9001;
  options.overlay.pastry.keep_alive_period = 0;
  options.broker.modulus_pool = 4;
  options.past.request_timeout = 10 * kMicrosPerSecond;
  options.default_user_quota = 100 << 10;  // 100 KiB per user
  options.default_node_capacity = 8 << 20;
  PastNetwork net(options);
  net.Build(60);

  // --- quota enforcement -----------------------------------------------------
  PastNode* user = net.node(1);
  int accepted = 0, quota_denied = 0;
  for (int i = 0; i < 30; ++i) {
    auto r = net.InsertSyntheticSync(user, "q" + std::to_string(i), 4 << 10, 3);
    if (r.ok()) {
      ++accepted;
    } else if (r.status() == StatusCode::kQuotaExceeded) {
      ++quota_denied;
    }
  }
  std::printf("quota: user quota %u KiB, k=3, 4 KiB files\n", 100);
  std::printf("  inserts accepted:       %3d (expect 8: 8*3*4KiB=96KiB <= 100KiB)\n",
              accepted);
  std::printf("  denied (quota):         %3d\n", quota_denied);
  std::printf("  card usage:             %llu bytes of %llu\n",
              static_cast<unsigned long long>(user->card().quota_used()),
              static_cast<unsigned long long>(user->card().usage_quota()));

  // Reclaim restores quota.
  FileId some_file;
  PastNode* user2 = net.node(2);
  auto tracked = net.InsertSyntheticSync(user2, "tracked", 8 << 10, 3);
  if (tracked.ok()) {
    some_file = tracked.value();
    uint64_t used_before = user2->card().quota_used();
    IgnoreStatus(net.ReclaimSync(user2, some_file));  // demo: quota delta printed below
    std::printf("  reclaim credit:         %llu -> %llu bytes used\n",
                static_cast<unsigned long long>(used_before),
                static_cast<unsigned long long>(user2->card().quota_used()));
  }

  // --- forged operations -------------------------------------------------------
  std::printf("\nforged operations:\n");
  // (a) Certificate from an uncertified card.
  Rng rng(3);
  RsaKeyPair rogue_key = RsaKeyPair::Generate(256, &rng);
  Smartcard rogue(rogue_key, Bytes(32, 0xaa), net.broker().public_key(), 1 << 30, 0,
                  INT64_MAX);
  Bytes content = ToBytes("bogus");
  auto digest = Sha256::Hash(ByteSpan(content.data(), content.size()));
  auto bad_cert = rogue.IssueFileCertificate("bogus", content.size(),
                                             ByteSpan(digest.data(), digest.size()),
                                             3, 1, 0);
  InsertRequestPayload forged_insert;
  forged_insert.cert = bad_cert.value();
  forged_insert.content = SharedBytes::Copy(content);
  forged_insert.client = net.node(5)->overlay()->descriptor();
  net.node(5)->overlay()->Route(bad_cert.value().file_id.Top128(),
                                static_cast<uint32_t>(PastOp::kInsertRequest),
                                forged_insert.Encode());
  net.Run(10 * kMicrosPerSecond);
  std::printf("  uncertified-card insert:  %d replicas stored (expect 0)\n",
              net.CountReplicas(bad_cert.value().file_id));
  json.Set("forged_insert_replicas",
           JsonValue(net.CountReplicas(bad_cert.value().file_id)));

  // (b) Content corrupted en route.
  auto good_cert = net.node(6)->card().IssueFileCertificate(
      "good", content.size(), ByteSpan(digest.data(), digest.size()), 3, 2, 0);
  InsertRequestPayload corrupted;
  corrupted.cert = good_cert.value();
  corrupted.content = ToBytes("bOgus");
  corrupted.client = net.node(6)->overlay()->descriptor();
  net.node(6)->overlay()->Route(good_cert.value().file_id.Top128(),
                                static_cast<uint32_t>(PastOp::kInsertRequest),
                                corrupted.Encode());
  net.Run(10 * kMicrosPerSecond);
  std::printf("  corrupted-content insert: %d replicas stored (expect 0)\n",
              net.CountReplicas(good_cert.value().file_id));
  json.Set("corrupted_insert_replicas",
           JsonValue(net.CountReplicas(good_cert.value().file_id)));

  // (c) Unauthorized reclaim.
  auto victim_file = net.InsertSync(net.node(7), "victim", ToBytes("keep"), 3);
  ReclaimRequestPayload forged_reclaim;
  forged_reclaim.cert =
      net.node(8)->card().IssueReclaimCertificate(victim_file.value(), 0);
  forged_reclaim.client = net.node(8)->overlay()->descriptor();
  net.node(8)->overlay()->Route(victim_file.value().Top128(),
                                static_cast<uint32_t>(PastOp::kReclaimRequest),
                                forged_reclaim.Encode());
  net.Run(10 * kMicrosPerSecond);
  std::printf("  forged reclaim:           %d replicas survive (expect 3)\n",
              net.CountReplicas(victim_file.value()));
  json.Set("forged_reclaim_survivors",
           JsonValue(net.CountReplicas(victim_file.value())));

  // --- audits -------------------------------------------------------------------
  std::printf("\naudits (honest network vs all-freeloader network):\n");
  auto audit_rate = [](bool honest, uint64_t seed) {
    PastNetworkOptions o;
    o.overlay.seed = seed;
    o.overlay.pastry.keep_alive_period = 0;
    o.broker.modulus_pool = 4;
    o.past.honest = honest;
    o.past.request_timeout = 10 * kMicrosPerSecond;
    PastNetwork n(o);
    n.Build(20);
    PastNode* client = n.node(0);
    int passed = 0, audits = 0;
    for (int f = 0; f < 10; ++f) {
      auto inserted =
          n.InsertSync(client, "a" + std::to_string(f), Bytes(256, 1), 3);
      if (!inserted.ok()) {
        continue;
      }
      const FileCertificate* cert = client->OwnedFileCert(inserted.value());
      // Audit the nodes that are supposed to store the file: the replica set
      // around the fileId (they are the ones that issued receipts).
      auto replicas =
          client->overlay()->ReplicaSet(inserted.value().Top128(), 3);
      for (const NodeDescriptor& target : replicas) {
        if (target.id == client->overlay()->id()) {
          continue;
        }
        ++audits;
        passed += n.AuditSync(client, target.addr, inserted.value(), *cert) ? 1 : 0;
      }
      if (audits >= 20) {
        break;
      }
    }
    return audits > 0 ? 100.0 * passed / audits : 0.0;
  };
  double honest_pass = audit_rate(true, 9101);
  double freeloader_pass = audit_rate(false, 9102);
  std::printf("  honest holders pass:      %5.1f%% (expect 100%%)\n", honest_pass);
  std::printf("  freeloaders pass:         %5.1f%% (expect 0%%)\n", freeloader_pass);
  json.Set("quota_inserts_accepted", JsonValue(accepted));
  json.Set("quota_inserts_denied", JsonValue(quota_denied));
  json.Set("audit_pass_honest", JsonValue(honest_pass / 100.0));
  json.Set("audit_pass_freeloader", JsonValue(freeloader_pass / 100.0));
  json.SetMetrics(net.overlay().network().metrics());

  std::printf("\nbroker supply/demand balance:\n");
  std::printf("  demand (quotas issued):   %llu bytes\n",
              static_cast<unsigned long long>(net.broker().total_demand()));
  std::printf("  supply (contributed):     %llu bytes\n",
              static_cast<unsigned long long>(net.broker().total_supply()));
  return json.Finish() ? 0 : 1;
}
