// PastNode — a PAST storage node and client access point.
//
// Sits on a PastryNode as its application layer. Implements:
//  * the client operations insert / lookup / reclaim (Section 1-2), with
//    store-receipt collection and file diversion (salt retry) on failure;
//  * the storage-node side: certificate verification, replica storage,
//    replica diversion to leaf-set neighbors, receipts, reclaim handling;
//  * replica maintenance on leaf-set changes (restores k copies after node
//    failures, demotes replicas the node is no longer responsible for);
//  * caching of files that pass through the node (insert forwarding, lookup
//    serving) with GreedyDual-Size eviction;
//  * storage audits (challenge/response over file contents).
//
// Every node is simultaneously a storage node (capacity possibly zero) and a
// client access point — exactly the paper's symmetric peer model.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/diskstore/disk_store.h"
#include "src/pastry/pastry_node.h"
#include "src/storage/cache.h"
#include "src/storage/file_store.h"
#include "src/storage/messages.h"
#include "src/storage/smartcard.h"
#include "src/storage/verify_cache.h"

namespace past {

struct PastConfig {
  uint32_t default_replication = 5;  // k for files inserted by this client

  StoragePolicy policy;
  bool enable_replica_diversion = true;
  // Leaf members tried (sequentially) before giving up on a diversion. The
  // SOSP scheme targets the leaf node with the most free space; probing the
  // members achieves the same acceptance set without a free-space oracle.
  int diversion_candidates = 32;
  int file_diversion_retries = 3;  // extra salts the client tries (SOSP scheme)

  CachePolicy cache_policy = CachePolicy::kGreedyDualSize;
  bool cache_on_insert_path = true;  // nodes en route cache inserted files
  bool cache_push_on_lookup = true;  // server pushes a copy toward the client
  double cache_max_frac = 0.5;       // only cache files <= frac * free space
  // Local disk a read-only (cardless) access point dedicates to its cache;
  // card-holding nodes cache in the unused part of their contributed space.
  uint64_t read_only_cache_capacity = 16ULL << 20;

  SimTime request_timeout = 30 * kMicrosPerSecond;
  SimTime maintenance_delay = 500 * kMicrosPerMilli;  // debounce leaf changes

  // Full signature verification on every certificate/receipt. Turning it off
  // (placement-only experiments) changes no placement decision.
  bool verify_crypto = true;

  // Bound on the per-node verified-signature memo cache (see VerifyCache);
  // 0 disables memoization so every certificate check re-runs RSA.
  size_t verify_cache_entries = 4096;

  // A dishonest node returns store receipts without storing (the freeloader
  // the paper's random audits are designed to expose).
  bool honest = true;

  // When non-empty, each node persists its replica store durably under
  // <state_dir>/<nodeId hex> (diskstore engine) and recovers it on restart;
  // when empty, stores are purely in-memory and die with the node.
  std::string state_dir;
  // Engine tuning for the durable store (env/metrics fields are overridden
  // per node; metrics always point at the network registry).
  DiskStoreOptions disk;
};

class PastNode : public PastryApp {
 public:
  // The node's capacity is its smartcard's contributed storage.
  PastNode(PastryNode* overlay, std::unique_ptr<Smartcard> card,
           const PastConfig& config, uint64_t seed);
  // Read-only client access point (Section 2.1: "read-only users do not need
  // a smartcard"). It routes and looks up files — verifying them against the
  // broker's key — but cannot insert, reclaim, audit, or store replicas.
  PastNode(PastryNode* overlay, RsaPublicKey broker_key, const PastConfig& config,
           uint64_t seed);
  ~PastNode() override;

  PastNode(const PastNode&) = delete;
  PastNode& operator=(const PastNode&) = delete;

  // --- client API --------------------------------------------------------------

  using InsertCallback = std::function<void(Result<FileId>)>;
  using ReclaimCallback = std::function<void(StatusCode)>;

  struct LookupOutcome {
    FileCertificate cert;
    Bytes content;
    bool from_cache = false;
    NodeDescriptor replier;
  };
  using LookupCallback = std::function<void(Result<LookupOutcome>)>;

  // Inserts a file under `k` replicas (0 = config default). The callback
  // fires with the fileId once k store receipts arrived, or with an error
  // after all file-diversion retries failed.
  void Insert(std::string name, Bytes content, uint32_t k, InsertCallback cb);

  // Insert with metadata only (no content bytes shipped or stored): lets
  // storage-management experiments run far beyond available RAM. The
  // content hash is derived from (name, size).
  void InsertSynthetic(std::string name, uint64_t size, uint32_t k, InsertCallback cb);

  void Lookup(const FileId& file_id, LookupCallback cb);

  // Reclaims a file this client inserted (the file certificate is looked up
  // in the client's local records).
  void Reclaim(const FileId& file_id, ReclaimCallback cb);

  // Audits `target`: challenges it to prove possession of `file_id`.
  // Callback receives true if the node produced a correct proof.
  using AuditCallback = std::function<void(bool passed)>;
  void Audit(NodeAddr target, const FileId& file_id, const FileCertificate& cert,
             AuditCallback cb);

  // --- introspection -------------------------------------------------------------

  PastryNode* overlay() { return overlay_; }
  bool has_card() const { return card_ != nullptr; }
  const Smartcard& card() const {
    PAST_CHECK_MSG(card_ != nullptr, "read-only node has no smartcard");
    return *card_;
  }
  Smartcard& card() {
    PAST_CHECK_MSG(card_ != nullptr, "read-only node has no smartcard");
    return *card_;
  }
  // Surrenders the smartcard (for reuse by a replacement node after a
  // simulated reboot — the card survives the crash, the process does not).
  std::unique_ptr<Smartcard> TakeCard() { return std::move(card_); }

  const RsaPublicKey& broker_key() const { return broker_key_; }
  const FileStore& store() const { return store_; }
  FileStore& store() { return store_; }
  const Cache& file_cache() const { return cache_; }
  const VerifyCache& verify_cache() const { return verify_cache_; }
  const PastConfig& config() const { return config_; }

  // Certificates of files this client successfully inserted.
  const FileCertificate* OwnedFileCert(const FileId& id) const;

  // Bytes free for primary replicas (cached copies are evictable).
  uint64_t primary_free() const { return store_.free_space(); }

  struct Stats {
    uint64_t inserts_rooted = 0;       // insert requests this node coordinated
    uint64_t replicas_stored = 0;      // primary replicas accepted
    uint64_t diverted_accepted = 0;    // diverted replicas accepted for others
    uint64_t diversions_ok = 0;        // replicas this node diverted away
    uint64_t store_rejects = 0;        // replicas refused (incl. failed divert)
    uint64_t lookups_served_store = 0;
    uint64_t lookups_served_cache = 0;
    uint64_t maintenance_fetches = 0;  // replicas re-created by maintenance
    uint64_t demotions = 0;            // replicas dropped to cache
    uint64_t reclaims_processed = 0;
    uint64_t bad_certificates = 0;     // verification failures observed
  };
  const Stats& stats() const { return stats_; }

  // The simulation-wide metrics registry this node reports into.
  MetricsRegistry& metrics() { return overlay_->net()->metrics(); }

  // kOk unless this node was configured with a state_dir whose durable
  // store failed to open. Such a node stores nothing: it refuses every
  // replica (a kUnavailable NACK, counted in past.store_unavailable) rather
  // than issue receipts for copies that would exist only in RAM.
  StatusCode store_status() const { return store_status_; }

  // PastryApp:
  void Deliver(const DeliverContext& ctx, const SharedBytes& payload) override;
  bool Forward(const U128& key, uint32_t app_type, const NodeDescriptor& next,
               SharedBytes* payload) override;
  void ReceiveDirect(const NodeDescriptor& from, uint32_t app_type,
                     const SharedBytes& payload) override;
  void OnLeafSetChanged() override;

 private:
  struct PendingInsert {
    std::string name;
    SharedBytes content;
    Bytes content_hash;
    uint64_t size = 0;
    uint32_t k = 0;
    FileCertificate cert;
    std::vector<StoreReceipt> receipts;
    std::unordered_set<U128, U128Hash> receipt_nodes;
    int attempt = 0;
    EventQueue::EventId timer = 0;
    SimTime started = 0;  // client-call time; survives diversion retries so
                          // the latency observed is end-to-end
    uint64_t span = 0;    // tracer span of the whole operation (0 = untraced)
    InsertCallback cb;
  };
  struct PendingLookup {
    EventQueue::EventId timer = 0;
    SimTime started = 0;
    uint64_t span = 0;
    LookupCallback cb;
  };
  struct PendingReclaim {
    FileCertificate cert;
    EventQueue::EventId timer = 0;
    SimTime started = 0;
    uint64_t span = 0;
    ReclaimCallback cb;
  };
  struct PendingDivert {
    FileCertificate cert;
    SharedBytes content;
    NodeDescriptor client;
    std::vector<NodeDescriptor> candidates;  // remaining targets to try
  };
  struct PendingAudit {
    FileCertificate cert;
    uint64_t nonce = 0;
    EventQueue::EventId timer = 0;
    AuditCallback cb;
  };

  // Client side.
  void StartInsertAttempt(PendingInsert state);
  void FailInsertAttempt(const FileId& id, StatusCode reason);
  void HandleStoreReceipt(const StoreReceipt& receipt);
  void HandleStoreNack(const StoreNackPayload& nack);
  void HandleLookupReply(const LookupReplyPayload& reply);
  void HandleReclaimReceipt(const ReclaimReceipt& receipt);

  // Storage-node side.
  void HandleInsertAtRoot(const DeliverContext& ctx, const InsertRequestPayload& req);
  void HandleLookupAtRoot(const DeliverContext& ctx, const LookupRequestPayload& req);
  void HandleReclaimAtRoot(const ReclaimRequestPayload& req);
  void HandleStoreReplica(const StoreReplicaPayload& req);
  void HandleDivertStore(const NodeDescriptor& from, const DivertStorePayload& req);
  void HandleDivertResult(const NodeDescriptor& from, const DivertResultPayload& res);
  void TryNextDiversion(const FileId& id);
  void HandleFetchRequest(const NodeDescriptor& from, const FetchRequestPayload& req);
  void HandleFetchReply(const FetchReplyPayload& reply);
  void HandleReclaimReplica(const ReclaimRequestPayload& req);
  void HandleReplicaNotify(const NodeDescriptor& from, const ReplicaNotifyPayload& n);
  void HandleCachePush(const CachePushPayload& push);
  void HandleAuditChallenge(const NodeDescriptor& from,
                            const AuditChallengePayload& challenge);
  void HandleAuditResponse(const AuditResponsePayload& response);

  // Storage helpers. Content is shared, never copied, between them.
  void StorePrimary(const FileCertificate& cert, SharedBytes content, bool diverted,
                    const NodeDescriptor& diverted_from);
  void ServeLookup(const NodeDescriptor& client, const FileCertificate& cert,
                   const SharedBytes& content, bool from_cache,
                   const std::vector<NodeAddr>& path);
  void MaybeCache(const FileCertificate& cert, const SharedBytes& content);
  // Counts and refuses a replica on a node whose durable store is down.
  bool RefuseIfStoreUnavailable();
  // Proof-of-possession digest: SHA-256(content hash || nonce), computable
  // only by nodes that kept the file's certified record. (Full-content audits
  // would additionally hash the stored bytes; see DESIGN.md.)
  static Bytes AuditDigest(const FileCertificate& cert, uint64_t nonce);

  // Maintenance.
  void ScheduleMaintenance();
  void RunMaintenance();

  // The store backend this node's config asks for: memory when state_dir is
  // empty, otherwise the durable engine under <state_dir>/<nodeId hex>. If
  // that cannot be opened, *status gets the failure and the node runs with
  // an empty in-memory stand-in that nothing is ever written to.
  static std::unique_ptr<StoreBackend> MakeBackend(const PastConfig& config,
                                                   const NodeId& id,
                                                   MetricsRegistry* metrics,
                                                   StatusCode* status);

  void SendOp(NodeAddr to, PastOp op, SharedBytes payload) {
    overlay_->SendDirect(to, static_cast<uint32_t>(op), std::move(payload));
  }
  // Fan-out to several recipients: encode the wire once and share it, so a
  // bulk payload (file contents to k replicas) is one allocation, not k.
  void SendOpMulti(const std::vector<NodeAddr>& targets, PastOp op,
                   const Bytes& payload) {
    if (targets.empty()) {
      return;
    }
    SharedBytes wire = overlay_->EncodeDirect(static_cast<uint32_t>(op),
                                              ByteSpan(payload.data(), payload.size()));
    for (NodeAddr to : targets) {
      overlay_->SendDirectWire(to, wire);
    }
  }
  // Routes toward `key`; `parent_span` rides the wire so remote hop spans
  // attach under the issuing operation. Returns the route seq.
  uint64_t RouteOp(const U128& key, PastOp op, SharedBytes payload,
                   uint64_t parent_span = 0) {
    return overlay_->Route(key, static_cast<uint32_t>(op), std::move(payload),
                           /*replica_k=*/0, parent_span);
  }
  SimTime Now() const { return overlay_->queue()->Now(); }
  Tracer& tracer() { return overlay_->net()->tracer(); }
  // Stamps the op's terminal status and closes its span.
  void FinishOpSpan(uint64_t span, const char* status) {
    tracer().Annotate(span, "status", status);
    tracer().EndSpan(span, Now());
  }

  PastryNode* overlay_;
  std::unique_ptr<Smartcard> card_;  // null for read-only client nodes
  RsaPublicKey broker_key_;
  PastConfig config_;
  Rng rng_;
  StatusCode store_status_ = StatusCode::kOk;  // set while store_ is built
  FileStore store_;
  Cache cache_;
  // Memo cache for certificate/receipt verification. Per node, so a restart
  // (new PastNode) starts empty and never serves results from a prior life.
  VerifyCache verify_cache_;

  std::unordered_map<U160, PendingInsert, U160Hash> pending_inserts_;
  std::unordered_map<U160, PendingLookup, U160Hash> pending_lookups_;
  std::unordered_map<U160, PendingReclaim, U160Hash> pending_reclaims_;
  std::unordered_map<U160, PendingDivert, U160Hash> pending_diverts_;
  std::unordered_map<U160, PendingAudit, U160Hash> pending_audits_;
  std::unordered_map<U160, FileCertificate, U160Hash> owned_files_;

  EventQueue::EventId maintenance_timer_ = 0;
  Stats stats_;

  // Aggregate "past.*" instruments in the network's registry (shared by all
  // storage nodes on the network); resolved once at construction.
  void ResolveInstruments();

  struct Instruments {
    Counter* inserts_rooted;
    Counter* replicas_stored;
    Counter* diverted_accepted;
    Counter* diversions_ok;
    Counter* store_rejects;
    Counter* lookups_served_store;
    Counter* lookups_served_cache;
    Counter* maintenance_fetches;
    Counter* demotions;
    Counter* reclaims_processed;
    Counter* bad_certificates;
    Counter* store_unavailable;  // replicas refused: durable store not open
    // End-to-end client-op latency quantiles (sim-time, client call to
    // callback), observed only on success.
    LogHistogram* insert_latency;
    LogHistogram* lookup_latency;
    LogHistogram* reclaim_latency;
  };
  Instruments obs_;
};

}  // namespace past

