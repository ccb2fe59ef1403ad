#include "src/storage/past_node.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/crypto/sha256.h"
#include "src/storage/disk_backend.h"

namespace past {
namespace {

Bytes ContentHashOf(ByteSpan content) {
  auto digest = Sha256::Hash(content);
  return Bytes(digest.begin(), digest.end());
}

// Pseudo content hash for synthetic (metadata-only) files.
Bytes SyntheticContentHash(std::string_view name, uint64_t size) {
  Writer w;
  w.Str(name);
  w.U64(size);
  const Bytes& buf = w.bytes();
  auto digest = Sha256::Hash(ByteSpan(buf.data(), buf.size()));
  return Bytes(digest.begin(), digest.end());
}

}  // namespace

std::unique_ptr<StoreBackend> PastNode::MakeBackend(const PastConfig& config,
                                                    const NodeId& id,
                                                    MetricsRegistry* metrics,
                                                    StatusCode* status) {
  *status = StatusCode::kOk;
  if (config.state_dir.empty()) {
    return std::make_unique<MemoryBackend>();
  }
  DiskStoreOptions options = config.disk;
  options.metrics = metrics;
  const std::string dir = config.state_dir + "/" + id.ToHex();
  Result<std::unique_ptr<DiskBackend>> backend = DiskBackend::Open(dir, options);
  if (!backend.ok()) {
    PAST_WARN("node %s: cannot open durable store in %s (%s); refusing replicas",
              id.ToHex().c_str(), dir.c_str(), StatusCodeName(backend.status()));
    *status = backend.status();
    return std::make_unique<MemoryBackend>();
  }
  return std::move(backend).value();
}

PastNode::PastNode(PastryNode* overlay, std::unique_ptr<Smartcard> card,
                   const PastConfig& config, uint64_t seed)
    : overlay_(overlay),
      card_(std::move(card)),
      config_(config),
      rng_(seed),
      store_(card_->contributed_storage(),
             MakeBackend(config, overlay->id(), &overlay->net()->metrics(),
                         &store_status_),
             &overlay->net()->metrics()),
      cache_(config.cache_policy, &overlay->net()->metrics()),
      verify_cache_(config.verify_cache_entries, &overlay->net()->metrics()) {
  PAST_CHECK(overlay_ != nullptr);
  PAST_CHECK(card_ != nullptr);
  broker_key_ = card_->broker_key();
  overlay_->SetApp(this);
  ResolveInstruments();
}

PastNode::PastNode(PastryNode* overlay, RsaPublicKey broker_key,
                   const PastConfig& config, uint64_t seed)
    : overlay_(overlay),
      card_(nullptr),
      broker_key_(std::move(broker_key)),
      config_(config),
      rng_(seed),
      store_(0, &overlay->net()->metrics()),
      cache_(config.cache_policy, &overlay->net()->metrics()),
      verify_cache_(config.verify_cache_entries, &overlay->net()->metrics()) {
  PAST_CHECK(overlay_ != nullptr);
  overlay_->SetApp(this);
  ResolveInstruments();
}

void PastNode::ResolveInstruments() {
  MetricsRegistry& m = metrics();
  obs_.inserts_rooted = m.GetCounter("past.inserts_rooted");
  obs_.replicas_stored = m.GetCounter("past.replicas_stored");
  obs_.diverted_accepted = m.GetCounter("past.diverted_accepted");
  obs_.diversions_ok = m.GetCounter("past.diversions_ok");
  obs_.store_rejects = m.GetCounter("past.store_rejects");
  obs_.lookups_served_store = m.GetCounter("past.lookups_served_store");
  obs_.lookups_served_cache = m.GetCounter("past.lookups_served_cache");
  obs_.maintenance_fetches = m.GetCounter("past.maintenance_fetches");
  obs_.demotions = m.GetCounter("past.demotions");
  obs_.reclaims_processed = m.GetCounter("past.reclaims_processed");
  obs_.bad_certificates = m.GetCounter("past.bad_certificates");
  obs_.store_unavailable = m.GetCounter("past.store_unavailable");
  obs_.insert_latency = m.GetLogHistogram("past.insert.latency_us");
  obs_.lookup_latency = m.GetLogHistogram("past.lookup.latency_us");
  obs_.reclaim_latency = m.GetLogHistogram("past.reclaim.latency_us");
}

PastNode::~PastNode() {
  EventQueue* q = overlay_->queue();
  if (maintenance_timer_ != 0) {
    q->Cancel(maintenance_timer_);
  }
  for (auto& [id, p] : pending_inserts_) {
    if (p.timer != 0) {
      q->Cancel(p.timer);
    }
  }
  for (auto& [id, p] : pending_lookups_) {
    if (p.timer != 0) {
      q->Cancel(p.timer);
    }
  }
  for (auto& [id, p] : pending_reclaims_) {
    if (p.timer != 0) {
      q->Cancel(p.timer);
    }
  }
  for (auto& [id, p] : pending_audits_) {
    if (p.timer != 0) {
      q->Cancel(p.timer);
    }
  }
}

const FileCertificate* PastNode::OwnedFileCert(const FileId& id) const {
  auto it = owned_files_.find(id);
  return it == owned_files_.end() ? nullptr : &it->second;
}

// --- client: insert ------------------------------------------------------------

void PastNode::Insert(std::string name, Bytes content, uint32_t k, InsertCallback cb) {
  PendingInsert state;
  state.name = std::move(name);
  state.content_hash = ContentHashOf(ByteSpan(content.data(), content.size()));
  state.size = content.size();
  state.content = SharedBytes(std::move(content));
  state.k = k == 0 ? config_.default_replication : k;
  state.cb = std::move(cb);
  state.started = Now();
  state.span = tracer().StartSpan("past.insert", Now(), overlay_->addr());
  tracer().Annotate(state.span, "file", state.name);
  StartInsertAttempt(std::move(state));
}

void PastNode::InsertSynthetic(std::string name, uint64_t size, uint32_t k,
                               InsertCallback cb) {
  PendingInsert state;
  state.content_hash = SyntheticContentHash(name, size);
  state.name = std::move(name);
  state.size = size;
  state.k = k == 0 ? config_.default_replication : k;
  state.cb = std::move(cb);
  state.started = Now();
  state.span = tracer().StartSpan("past.insert", Now(), overlay_->addr());
  tracer().Annotate(state.span, "file", state.name);
  StartInsertAttempt(std::move(state));
}

void PastNode::StartInsertAttempt(PendingInsert state) {
  if (card_ == nullptr) {
    FinishOpSpan(state.span, "not_authorized");
    state.cb(StatusCode::kNotAuthorized);  // read-only node
    return;
  }
  const uint64_t salt = rng_.NextU64();
  Result<FileCertificate> cert = card_->IssueFileCertificate(
      state.name, state.size, ByteSpan(state.content_hash.data(), state.content_hash.size()),
      state.k, salt, Now());
  if (!cert.ok()) {
    FinishOpSpan(state.span, StatusCodeName(cert.status()));
    state.cb(cert.status());
    return;
  }
  state.cert = std::move(cert).value();
  state.receipts.clear();
  state.receipt_nodes.clear();
  const FileId id = state.cert.file_id;

  InsertRequestPayload payload;
  payload.cert = state.cert;
  payload.content = state.content;
  payload.client = overlay_->descriptor();

  state.timer = overlay_->queue()->After(config_.request_timeout, [this, id] {
    auto it = pending_inserts_.find(id);
    if (it != pending_inserts_.end()) {
      it->second.timer = 0;
      FailInsertAttempt(id, StatusCode::kTimeout);
    }
  });
  const uint64_t span = state.span;
  pending_inserts_.emplace(id, std::move(state));
  RouteOp(id.Top128(), PastOp::kInsertRequest, payload.Encode(), span);
}

void PastNode::FailInsertAttempt(const FileId& id, StatusCode reason) {
  auto it = pending_inserts_.find(id);
  if (it == pending_inserts_.end()) {
    return;
  }
  PendingInsert state = std::move(it->second);
  pending_inserts_.erase(it);
  if (state.timer != 0) {
    overlay_->queue()->Cancel(state.timer);
    state.timer = 0;
  }
  // Clean up any replicas that did get stored, then return the quota debit.
  if (!state.receipts.empty()) {
    ReclaimRequestPayload cleanup;
    cleanup.cert = card_->IssueReclaimCertificate(id, Now());
    cleanup.client = overlay_->descriptor();
    RouteOp(id.Top128(), PastOp::kReclaimRequest, cleanup.Encode(), state.span);
  }
  if (StatusCode refund = card_->RefundFileCertificate(state.cert);
      refund != StatusCode::kOk) {
    PAST_WARN("quota refund for '%s' failed: %s", state.name.c_str(),
              StatusCodeName(refund));
  }

  if (state.attempt < config_.file_diversion_retries) {
    // File diversion: retry under a fresh salt, which maps the file to an
    // entirely different region of the id space (SOSP scheme).
    state.attempt += 1;
    PAST_DEBUG("file diversion retry %d for '%s'", state.attempt, state.name.c_str());
    StartInsertAttempt(std::move(state));
    return;
  }
  FinishOpSpan(state.span,
               reason == StatusCode::kTimeout ? "timeout" : "insert_rejected");
  state.cb(reason == StatusCode::kTimeout ? StatusCode::kTimeout
                                          : StatusCode::kInsertRejected);
}

void PastNode::HandleStoreReceipt(const StoreReceipt& receipt) {
  auto it = pending_inserts_.find(receipt.file_id);
  if (it == pending_inserts_.end()) {
    return;  // late or duplicate receipt
  }
  PendingInsert& state = it->second;
  if (config_.verify_crypto && !receipt.Verify(broker_key_, &verify_cache_)) {
    ++stats_.bad_certificates;
    obs_.bad_certificates->Inc();
    return;
  }
  const NodeId node = receipt.node_card.DerivedNodeId();
  if (!state.receipt_nodes.insert(node).second) {
    return;  // duplicate node
  }
  state.receipts.push_back(receipt);
  if (state.receipts.size() >= state.k) {
    if (state.timer != 0) {
      overlay_->queue()->Cancel(state.timer);
    }
    owned_files_.emplace(receipt.file_id, state.cert);
    obs_.insert_latency->Observe(static_cast<double>(Now() - state.started));
    FinishOpSpan(state.span, "ok");
    InsertCallback cb = std::move(state.cb);
    FileId id = receipt.file_id;
    pending_inserts_.erase(it);
    cb(id);
  }
}

void PastNode::HandleStoreNack(const StoreNackPayload& nack) {
  // A single refusal makes k receipts unreachable: fail the attempt now and
  // move on to file diversion.
  FailInsertAttempt(nack.file_id, StatusCode::kInsufficientStorage);
}

// --- client: lookup --------------------------------------------------------------

void PastNode::Lookup(const FileId& file_id, LookupCallback cb) {
  // Local fast paths: this node may itself hold a replica or a cached copy.
  // Latency is observed (as zero) on these too, so the quantiles reflect the
  // client's view, cache hits and all.
  if (const StoredFile* f = store_.Get(file_id)) {
    LookupOutcome outcome;
    outcome.cert = f->cert;
    outcome.content.assign(f->content.begin(), f->content.end());
    outcome.from_cache = false;
    outcome.replier = overlay_->descriptor();
    ++stats_.lookups_served_store;
    obs_.lookups_served_store->Inc();
    obs_.lookup_latency->Observe(0.0);
    uint64_t span = tracer().RecordSpan("past.lookup", Now(), Now(), overlay_->addr());
    tracer().Annotate(span, "status", "local_store");
    cb(std::move(outcome));
    return;
  }
  if (const CachedFile* f = cache_.Get(file_id)) {
    LookupOutcome outcome;
    outcome.cert = f->cert;
    outcome.content.assign(f->content.begin(), f->content.end());
    outcome.from_cache = true;
    outcome.replier = overlay_->descriptor();
    ++stats_.lookups_served_cache;
    obs_.lookups_served_cache->Inc();
    obs_.lookup_latency->Observe(0.0);
    uint64_t span = tracer().RecordSpan("past.lookup", Now(), Now(), overlay_->addr());
    tracer().Annotate(span, "status", "local_cache");
    cb(std::move(outcome));
    return;
  }
  if (pending_lookups_.count(file_id) > 0) {
    cb(StatusCode::kAlreadyExists);
    return;
  }
  PendingLookup pending;
  pending.cb = std::move(cb);
  pending.started = Now();
  pending.span = tracer().StartSpan("past.lookup", Now(), overlay_->addr());
  const uint64_t span = pending.span;
  pending.timer = overlay_->queue()->After(config_.request_timeout, [this, file_id] {
    auto it = pending_lookups_.find(file_id);
    if (it == pending_lookups_.end()) {
      return;
    }
    FinishOpSpan(it->second.span, "timeout");
    LookupCallback cb2 = std::move(it->second.cb);
    pending_lookups_.erase(it);
    cb2(StatusCode::kNotFound);
  });
  pending_lookups_.emplace(file_id, std::move(pending));

  LookupRequestPayload payload;
  payload.file_id = file_id;
  payload.client = overlay_->descriptor();
  // Any of the k replica holders can answer, so let routing deliver at the
  // proximally closest one (Section 2.2 locality: lookups tend to reach the
  // replica nearest the client).
  overlay_->Route(file_id.Top128(), static_cast<uint32_t>(PastOp::kLookupRequest),
                  payload.Encode(),
                  static_cast<uint8_t>(config_.default_replication), span);
}

void PastNode::HandleLookupReply(const LookupReplyPayload& reply) {
  auto it = pending_lookups_.find(reply.cert.file_id);
  if (it == pending_lookups_.end()) {
    return;  // duplicate answer from another replica
  }
  if (config_.verify_crypto && !reply.cert.Verify(broker_key_, &verify_cache_)) {
    ++stats_.bad_certificates;
    obs_.bad_certificates->Inc();
    return;
  }
  // Verify content authenticity against the owner-signed certificate.
  if (!reply.content.empty() && !reply.cert.MatchesContent(reply.content)) {
    ++stats_.bad_certificates;
    obs_.bad_certificates->Inc();
    return;
  }
  if (it->second.timer != 0) {
    overlay_->queue()->Cancel(it->second.timer);
  }
  obs_.lookup_latency->Observe(static_cast<double>(Now() - it->second.started));
  FinishOpSpan(it->second.span, "ok");
  LookupCallback cb = std::move(it->second.cb);
  pending_lookups_.erase(it);
  // The client access point is on the lookup path too: cache the file here so
  // repeated local interest is served without another fetch.
  if (config_.cache_push_on_lookup) {
    MaybeCache(reply.cert, reply.content);
  }
  LookupOutcome outcome;
  outcome.cert = reply.cert;
  // The public outcome owns its bytes: the one copy a lookup makes past the
  // Pastry boundary.
  outcome.content.assign(reply.content.begin(), reply.content.end());
  outcome.from_cache = reply.from_cache;
  outcome.replier = reply.replier;
  cb(std::move(outcome));
}

// --- client: reclaim ---------------------------------------------------------------

void PastNode::Reclaim(const FileId& file_id, ReclaimCallback cb) {
  if (card_ == nullptr) {
    cb(StatusCode::kNotAuthorized);  // read-only node
    return;
  }
  auto owned = owned_files_.find(file_id);
  if (owned == owned_files_.end()) {
    cb(StatusCode::kNotFound);
    return;
  }
  if (pending_reclaims_.count(file_id) > 0) {
    cb(StatusCode::kAlreadyExists);
    return;
  }
  PendingReclaim pending;
  pending.cert = owned->second;
  pending.cb = std::move(cb);
  pending.started = Now();
  pending.span = tracer().StartSpan("past.reclaim", Now(), overlay_->addr());
  const uint64_t span = pending.span;
  pending.timer = overlay_->queue()->After(config_.request_timeout, [this, file_id] {
    auto it = pending_reclaims_.find(file_id);
    if (it == pending_reclaims_.end()) {
      return;
    }
    FinishOpSpan(it->second.span, "timeout");
    ReclaimCallback cb2 = std::move(it->second.cb);
    pending_reclaims_.erase(it);
    cb2(StatusCode::kTimeout);
  });
  pending_reclaims_.emplace(file_id, std::move(pending));

  ReclaimRequestPayload payload;
  payload.cert = card_->IssueReclaimCertificate(file_id, Now());
  payload.client = overlay_->descriptor();
  RouteOp(file_id.Top128(), PastOp::kReclaimRequest, payload.Encode(), span);
}

void PastNode::HandleReclaimReceipt(const ReclaimReceipt& receipt) {
  auto it = pending_reclaims_.find(receipt.file_id);
  if (it == pending_reclaims_.end()) {
    return;  // receipts from the remaining replicas
  }
  if (config_.verify_crypto && !receipt.Verify(broker_key_, &verify_cache_)) {
    ++stats_.bad_certificates;
    obs_.bad_certificates->Inc();
    return;
  }
  if (StatusCode credit = card_->CreditReclaim(receipt, it->second.cert);
      credit != StatusCode::kOk) {
    PAST_WARN("reclaim credit failed: %s", StatusCodeName(credit));
  }
  if (it->second.timer != 0) {
    overlay_->queue()->Cancel(it->second.timer);
  }
  obs_.reclaim_latency->Observe(static_cast<double>(Now() - it->second.started));
  FinishOpSpan(it->second.span, "ok");
  ReclaimCallback cb = std::move(it->second.cb);
  pending_reclaims_.erase(it);
  owned_files_.erase(receipt.file_id);
  cb(StatusCode::kOk);
}

// --- audits ------------------------------------------------------------------------

Bytes PastNode::AuditDigest(const FileCertificate& cert, uint64_t nonce) {
  Writer w;
  w.Blob(cert.content_hash);
  w.U64(nonce);
  const Bytes& buf = w.bytes();
  auto digest = Sha256::Hash(ByteSpan(buf.data(), buf.size()));
  return Bytes(digest.begin(), digest.end());
}

void PastNode::Audit(NodeAddr target, const FileId& file_id,
                     const FileCertificate& cert, AuditCallback cb) {
  PendingAudit pending;
  pending.cert = cert;
  pending.nonce = rng_.NextU64();
  pending.cb = std::move(cb);
  pending.timer = overlay_->queue()->After(config_.request_timeout, [this, file_id] {
    auto it = pending_audits_.find(file_id);
    if (it == pending_audits_.end()) {
      return;
    }
    AuditCallback cb2 = std::move(it->second.cb);
    pending_audits_.erase(it);
    cb2(false);  // no proof within the deadline
  });
  AuditChallengePayload challenge;
  challenge.file_id = file_id;
  challenge.nonce = pending.nonce;
  pending_audits_[file_id] = std::move(pending);
  SendOp(target, PastOp::kAuditChallenge, challenge.Encode());
}

void PastNode::HandleAuditChallenge(const NodeDescriptor& from,
                                    const AuditChallengePayload& challenge) {
  AuditResponsePayload response;
  response.file_id = challenge.file_id;
  response.nonce = challenge.nonce;
  const StoredFile* f = store_.Get(challenge.file_id);
  if (f != nullptr) {
    response.has_file = true;
    response.digest = AuditDigest(f->cert, challenge.nonce);
  } else {
    response.has_file = false;
  }
  SendOp(from.addr, PastOp::kAuditResponse, response.Encode());
}

void PastNode::HandleAuditResponse(const AuditResponsePayload& response) {
  auto it = pending_audits_.find(response.file_id);
  if (it == pending_audits_.end() || it->second.nonce != response.nonce) {
    return;
  }
  Bytes expected = AuditDigest(it->second.cert, it->second.nonce);
  bool passed = response.has_file &&
                ConstantTimeEqual(response.digest, expected);
  if (it->second.timer != 0) {
    overlay_->queue()->Cancel(it->second.timer);
  }
  AuditCallback cb = std::move(it->second.cb);
  pending_audits_.erase(it);
  cb(passed);
}

// --- storage node: insert path -------------------------------------------------------

void PastNode::HandleInsertAtRoot(const DeliverContext& ctx,
                                  const InsertRequestPayload& req) {
  ++stats_.inserts_rooted;
  obs_.inserts_rooted->Inc();
  if (config_.verify_crypto && !req.cert.Verify(broker_key_, &verify_cache_)) {
    ++stats_.bad_certificates;
    obs_.bad_certificates->Inc();
    StoreNackPayload nack;
    nack.file_id = req.cert.file_id;
    nack.reason = static_cast<uint8_t>(StatusCode::kVerificationFailed);
    SendOp(req.client.addr, PastOp::kStoreNack, nack.Encode());
    return;
  }
  std::vector<NodeDescriptor> replicas =
      overlay_->ReplicaSet(ctx.key, static_cast<int>(req.cert.replication_factor));
  StoreReplicaPayload replica;
  replica.cert = req.cert;
  replica.content = req.content;
  replica.client = req.client;
  replica.divert_allowed = config_.enable_replica_diversion;
  // Encode once: the file content is one wire allocation shared by every
  // remote replica, not one copy per recipient.
  Bytes encoded = replica.Encode();
  SharedBytes wire = overlay_->EncodeDirect(
      static_cast<uint32_t>(PastOp::kStoreReplica),
      ByteSpan(encoded.data(), encoded.size()));
  for (const NodeDescriptor& target : replicas) {
    if (target.id == overlay_->id()) {
      HandleStoreReplica(replica);
    } else {
      overlay_->SendDirectWire(target.addr, wire);
    }
  }
}

void PastNode::HandleStoreReplica(const StoreReplicaPayload& req) {
  const FileId id = req.cert.file_id;
  auto send_nack = [&](StatusCode reason) {
    ++stats_.store_rejects;
    obs_.store_rejects->Inc();
    StoreNackPayload nack;
    nack.file_id = id;
    nack.reason = static_cast<uint8_t>(reason);
    SendOp(req.client.addr, PastOp::kStoreNack, nack.Encode());
  };

  if (card_ == nullptr) {
    // Read-only access point: cannot issue store receipts.
    send_nack(StatusCode::kNotAuthorized);
    return;
  }
  if (RefuseIfStoreUnavailable()) {
    send_nack(StatusCode::kUnavailable);
    return;
  }

  if (config_.verify_crypto && !req.cert.Verify(broker_key_, &verify_cache_)) {
    ++stats_.bad_certificates;
    obs_.bad_certificates->Inc();
    send_nack(StatusCode::kVerificationFailed);
    return;
  }
  // Detect content corrupted en route by faulty/malicious intermediate nodes.
  if (!req.content.empty() && !req.cert.MatchesContent(req.content)) {
    ++stats_.bad_certificates;
    obs_.bad_certificates->Inc();
    send_nack(StatusCode::kVerificationFailed);
    return;
  }
  if (store_.Has(id)) {
    // Idempotent: re-issue the receipt.
    StoreReceiptPayload receipt;
    receipt.receipt = card_->IssueStoreReceipt(id, store_.Get(id)->diverted, Now());
    SendOp(req.client.addr, PastOp::kStoreReceiptMsg, receipt.Encode());
    return;
  }
  if (!config_.honest) {
    // Freeloader: issues a receipt but never stores. Random audits expose it.
    StoreReceiptPayload receipt;
    receipt.receipt = card_->IssueStoreReceipt(id, false, Now());
    SendOp(req.client.addr, PastOp::kStoreReceiptMsg, receipt.Encode());
    return;
  }

  const uint64_t size = req.cert.file_size;
  if (config_.policy.AcceptPrimary(size, primary_free())) {
    StorePrimary(req.cert, req.content, /*diverted=*/false, NodeDescriptor{});
    ++stats_.replicas_stored;
    obs_.replicas_stored->Inc();
    StoreReceiptPayload receipt;
    receipt.receipt = card_->IssueStoreReceipt(id, /*diverted=*/false, Now());
    SendOp(req.client.addr, PastOp::kStoreReceiptMsg, receipt.Encode());
    return;
  }

  if (config_.enable_replica_diversion && req.divert_allowed) {
    // Replica diversion (SOSP scheme): ask a leaf-set node that is not in the
    // file's replica set to hold the replica; keep a pointer here.
    std::vector<NodeDescriptor> replicas = overlay_->ReplicaSet(
        id.Top128(), static_cast<int>(req.cert.replication_factor));
    std::vector<NodeDescriptor> candidates;
    for (const NodeDescriptor& d : overlay_->leaf_set().Members()) {
      bool in_replica_set = false;
      for (const NodeDescriptor& r : replicas) {
        if (r.id == d.id) {
          in_replica_set = true;
          break;
        }
      }
      if (!in_replica_set) {
        candidates.push_back(d);
      }
    }
    rng_.Shuffle(&candidates);
    if (static_cast<int>(candidates.size()) > config_.diversion_candidates) {
      candidates.resize(static_cast<size_t>(config_.diversion_candidates));
    }
    if (!candidates.empty()) {
      PendingDivert divert;
      divert.cert = req.cert;
      divert.content = req.content;
      divert.client = req.client;
      divert.candidates = std::move(candidates);
      pending_diverts_[id] = std::move(divert);
      TryNextDiversion(id);
      return;
    }
  }
  send_nack(StatusCode::kInsufficientStorage);
}

void PastNode::TryNextDiversion(const FileId& id) {
  auto it = pending_diverts_.find(id);
  if (it == pending_diverts_.end()) {
    return;
  }
  PendingDivert& state = it->second;
  if (state.candidates.empty()) {
    ++stats_.store_rejects;
    obs_.store_rejects->Inc();
    StoreNackPayload nack;
    nack.file_id = id;
    nack.reason = static_cast<uint8_t>(StatusCode::kInsufficientStorage);
    SendOp(state.client.addr, PastOp::kStoreNack, nack.Encode());
    pending_diverts_.erase(it);
    return;
  }
  NodeDescriptor target = state.candidates.back();
  state.candidates.pop_back();
  DivertStorePayload payload;
  payload.cert = state.cert;
  payload.content = state.content;
  payload.client = state.client;
  payload.primary = overlay_->descriptor();
  SendOp(target.addr, PastOp::kDivertStore, payload.Encode());
}

void PastNode::HandleDivertStore(const NodeDescriptor& from,
                                 const DivertStorePayload& req) {
  const FileId id = req.cert.file_id;
  DivertResultPayload result;
  result.file_id = id;
  result.client = req.client;
  result.accepted = false;
  // A node whose durable store is down refuses, and the diverting primary
  // moves on to its next candidate.
  if (card_ != nullptr && !RefuseIfStoreUnavailable() &&
      (!config_.verify_crypto || req.cert.Verify(broker_key_, &verify_cache_)) &&
      config_.honest && !store_.Has(id) &&
      config_.policy.AcceptDiverted(req.cert.file_size, primary_free())) {
    StorePrimary(req.cert, req.content, /*diverted=*/true, req.primary);
    ++stats_.diverted_accepted;
    obs_.diverted_accepted->Inc();
    result.accepted = true;
  }
  SendOp(from.addr, PastOp::kDivertResult, result.Encode());
}

void PastNode::HandleDivertResult(const NodeDescriptor& from,
                                  const DivertResultPayload& res) {
  auto it = pending_diverts_.find(res.file_id);
  if (it == pending_diverts_.end()) {
    return;
  }
  if (!res.accepted) {
    TryNextDiversion(res.file_id);
    return;
  }
  if (StatusCode status = store_.PutPointer(res.file_id, from);
      status != StatusCode::kOk) {
    // The replica is already on the diversion target; losing the pointer
    // only costs an indirection (maintenance re-fetches find it), so keep
    // the receipt path going but record the failure.
    PAST_WARN("diverted-pointer write failed: %s", StatusCodeName(status));
  }
  ++stats_.diversions_ok;
  obs_.diversions_ok->Inc();
  StoreReceiptPayload receipt;
  receipt.receipt = card_->IssueStoreReceipt(res.file_id, /*diverted=*/true, Now());
  SendOp(it->second.client.addr, PastOp::kStoreReceiptMsg, receipt.Encode());
  pending_diverts_.erase(it);
}

bool PastNode::RefuseIfStoreUnavailable() {
  if (store_status_ == StatusCode::kOk) {
    return false;
  }
  obs_.store_unavailable->Inc();
  return true;
}

void PastNode::StorePrimary(const FileCertificate& cert, SharedBytes content,
                            bool diverted, const NodeDescriptor& diverted_from) {
  const uint64_t size = cert.file_size;
  PAST_CHECK(size <= store_.free_space());
  // Cached copies yield to real replicas: shrink the cache so that primaries
  // plus cache never exceed the physical capacity.
  const uint64_t max_cache = store_.free_space() - size;
  cache_.ShrinkTo(max_cache);
  cache_.Remove(cert.file_id);
  StoredFile file;
  file.cert = cert;
  file.content = std::move(content);
  file.diverted = diverted;
  file.diverted_from = diverted_from;
  StatusCode status = store_.Put(std::move(file));
  PAST_CHECK(status == StatusCode::kOk);
}

// --- storage node: lookup path --------------------------------------------------------

void PastNode::ServeLookup(const NodeDescriptor& client, const FileCertificate& cert,
                           const SharedBytes& content, bool from_cache,
                           const std::vector<NodeAddr>& path) {
  LookupReplyPayload reply;
  reply.cert = cert;
  reply.content = content;
  reply.from_cache = from_cache;
  reply.replier = overlay_->descriptor();
  SendOp(client.addr, PastOp::kLookupReply, reply.Encode());
  if (from_cache) {
    ++stats_.lookups_served_cache;
    obs_.lookups_served_cache->Inc();
  } else {
    ++stats_.lookups_served_store;
    obs_.lookups_served_store->Inc();
  }
  // Push cacheable copies to the nodes the lookup traversed (the SOSP scheme
  // caches along the lookup path; by Pastry's locality property the first
  // hops are close to the client). The path is at most O(log N) long.
  if (config_.cache_push_on_lookup) {
    std::vector<NodeAddr> targets;
    for (size_t i = 1; i + 1 < path.size(); ++i) {
      NodeAddr target = path[i];
      if (target == overlay_->addr() || target == client.addr) {
        continue;
      }
      targets.push_back(target);
    }
    if (!targets.empty()) {
      CachePushPayload push;
      push.cert = cert;
      push.content = content;
      SendOpMulti(targets, PastOp::kCachePush, push.Encode());
    }
  }
}

void PastNode::HandleLookupAtRoot(const DeliverContext& ctx,
                                  const LookupRequestPayload& req) {
  const FileId id = req.file_id;
  if (const StoredFile* f = store_.Get(id)) {
    ServeLookup(req.client, f->cert, f->content, /*from_cache=*/false, ctx.path);
    return;
  }
  if (std::optional<NodeDescriptor> holder = store_.GetPointer(id)) {
    // Diverted replica: redirect to the node actually holding it.
    FetchRequestPayload fetch;
    fetch.file_id = id;
    fetch.client = req.client;
    fetch.for_lookup = true;
    SendOp(holder->addr, PastOp::kFetchRequest, fetch.Encode());
    return;
  }
  if (const CachedFile* f = cache_.Get(id)) {
    ServeLookup(req.client, f->cert, f->content, /*from_cache=*/true, ctx.path);
    return;
  }
  // Not here (e.g. this node joined after the file was inserted and has not
  // finished fetching it). Ask the other likely replica holders; whoever has
  // the file answers the client directly. No answer -> client times out.
  std::vector<NodeDescriptor> replicas =
      overlay_->ReplicaSet(ctx.key, static_cast<int>(config_.default_replication));
  FetchRequestPayload fetch;
  fetch.file_id = id;
  fetch.client = req.client;
  fetch.for_lookup = true;
  std::vector<NodeAddr> targets;
  for (const NodeDescriptor& d : replicas) {
    if (d.id != overlay_->id()) {
      targets.push_back(d.addr);
    }
  }
  SendOpMulti(targets, PastOp::kFetchRequest, fetch.Encode());
}

void PastNode::HandleFetchRequest(const NodeDescriptor& from,
                                  const FetchRequestPayload& req) {
  const StoredFile* f = store_.Get(req.file_id);
  const FileCertificate* cert = nullptr;
  const SharedBytes* content = nullptr;
  bool from_cache = false;
  if (f != nullptr) {
    cert = &f->cert;
    content = &f->content;
  } else if (const CachedFile* c = cache_.Get(req.file_id)) {
    cert = &c->cert;
    content = &c->content;
    from_cache = true;
  }
  if (req.for_lookup) {
    if (cert != nullptr) {
      ServeLookup(req.client, *cert, *content, from_cache, {});
    }
    return;
  }
  FetchReplyPayload reply;
  reply.found = cert != nullptr;
  if (cert != nullptr) {
    reply.cert = *cert;
    reply.content = *content;
  }
  SendOp(from.addr, PastOp::kFetchReply, reply.Encode());
}

void PastNode::HandleFetchReply(const FetchReplyPayload& reply) {
  if (!reply.found) {
    return;
  }
  const FileId id = reply.cert.file_id;
  if (store_.Has(id) || RefuseIfStoreUnavailable()) {
    return;
  }
  if (config_.verify_crypto && !reply.cert.Verify(broker_key_, &verify_cache_)) {
    ++stats_.bad_certificates;
    obs_.bad_certificates->Inc();
    return;
  }
  // Maintenance fetch: this node is now among the k closest for the file, so
  // store it if it physically fits (recovery is not subject to t_pri).
  if (reply.cert.file_size <= primary_free()) {
    StorePrimary(reply.cert, reply.content, /*diverted=*/false, NodeDescriptor{});
    ++stats_.maintenance_fetches;
    obs_.maintenance_fetches->Inc();
  }
}

// --- storage node: reclaim path ----------------------------------------------------------

void PastNode::HandleReclaimAtRoot(const ReclaimRequestPayload& req) {
  const FileId id = req.cert.file_id;
  int k = static_cast<int>(config_.default_replication);
  if (const StoredFile* f = store_.Get(id)) {
    k = static_cast<int>(f->cert.replication_factor);
  }
  std::vector<NodeDescriptor> replicas = overlay_->ReplicaSet(id.Top128(), k);
  Bytes encoded = req.Encode();
  SharedBytes wire = overlay_->EncodeDirect(
      static_cast<uint32_t>(PastOp::kReclaimReplica),
      ByteSpan(encoded.data(), encoded.size()));
  for (const NodeDescriptor& target : replicas) {
    if (target.id == overlay_->id()) {
      HandleReclaimReplica(req);
    } else {
      overlay_->SendDirectWire(target.addr, wire);
    }
  }
}

void PastNode::HandleReclaimReplica(const ReclaimRequestPayload& req) {
  const FileId id = req.cert.file_id;
  if (config_.verify_crypto && !req.cert.Verify(broker_key_, &verify_cache_)) {
    ++stats_.bad_certificates;
    obs_.bad_certificates->Inc();
    return;
  }
  if (const StoredFile* f = store_.Get(id)) {
    PAST_CHECK_MSG(card_ != nullptr, "cardless node cannot hold replicas");
    // Only the owner of the file certificate may reclaim.
    if (!(req.cert.owner.public_key == f->cert.owner.public_key)) {
      ++stats_.bad_certificates;
      obs_.bad_certificates->Inc();
      return;
    }
    uint64_t size = f->cert.file_size;
    store_.Remove(id);
    ++stats_.reclaims_processed;
    obs_.reclaims_processed->Inc();
    ReclaimReceiptPayload receipt;
    receipt.receipt = card_->IssueReclaimReceipt(id, size, Now());
    SendOp(req.client.addr, PastOp::kReclaimReceiptMsg, receipt.Encode());
    return;
  }
  if (std::optional<NodeDescriptor> holder = store_.GetPointer(id)) {
    PAST_CHECK(store_.RemovePointer(id));  // present: GetPointer just hit
    SendOp(holder->addr, PastOp::kReclaimReplica, req.Encode());
    return;
  }
  // Cached copies carry no storage obligation, but reclaim drops them too.
  cache_.Remove(id);
}

// --- caching -------------------------------------------------------------------------------

void PastNode::MaybeCache(const FileCertificate& cert, const SharedBytes& content) {
  if (cache_.policy() == CachePolicy::kNone || store_.Has(cert.file_id) ||
      cache_.Contains(cert.file_id)) {
    return;
  }
  if (config_.verify_crypto && !cert.Verify(broker_key_, &verify_cache_)) {
    return;
  }
  const uint64_t available =
      card_ != nullptr ? primary_free() : config_.read_only_cache_capacity;
  if (static_cast<double>(cert.file_size) >
      config_.cache_max_frac * static_cast<double>(available)) {
    return;
  }
  cache_.Insert(cert, content, available);
}

void PastNode::HandleCachePush(const CachePushPayload& push) {
  MaybeCache(push.cert, push.content);
}

// --- replica maintenance ---------------------------------------------------------------------

void PastNode::OnLeafSetChanged() { ScheduleMaintenance(); }

void PastNode::ScheduleMaintenance() {
  if (maintenance_timer_ != 0) {
    overlay_->queue()->Cancel(maintenance_timer_);
  }
  maintenance_timer_ = overlay_->queue()->After(config_.maintenance_delay, [this] {
    maintenance_timer_ = 0;
    RunMaintenance();
  });
}

void PastNode::RunMaintenance() {
  if (!overlay_->active()) {
    return;
  }
  const uint64_t span =
      tracer().StartSpan("past.maintenance", Now(), overlay_->addr());
  const uint64_t demotions_before = stats_.demotions;
  for (const FileId& id : store_.FileIds()) {
    const StoredFile* f = store_.Get(id);
    if (f == nullptr || f->diverted) {
      continue;  // the pointer-holding primary manages diverted replicas
    }
    std::vector<NodeDescriptor> replicas = overlay_->ReplicaSet(
        id.Top128(), static_cast<int>(f->cert.replication_factor));
    bool self_in = false;
    for (const NodeDescriptor& d : replicas) {
      if (d.id == overlay_->id()) {
        self_in = true;
        break;
      }
    }
    ReplicaNotifyPayload notify;
    notify.file_id = id;
    notify.file_size = f->cert.file_size;
    std::vector<NodeAddr> targets;
    for (const NodeDescriptor& d : replicas) {
      if (d.id != overlay_->id()) {
        targets.push_back(d.addr);
      }
    }
    SendOpMulti(targets, PastOp::kReplicaNotify, notify.Encode());
    if (!self_in) {
      // No longer responsible: demote the replica to an (evictable) cached
      // copy after offering it to the current replica set above.
      MaybeCache(f->cert, f->content);
      store_.Remove(id);
      ++stats_.demotions;
      obs_.demotions->Inc();
    }
  }
  tracer().Annotate(span, "demotions",
                    std::to_string(stats_.demotions - demotions_before));
  tracer().EndSpan(span, Now());
}

void PastNode::HandleReplicaNotify(const NodeDescriptor& from,
                                   const ReplicaNotifyPayload& n) {
  if (store_.Has(n.file_id)) {
    return;
  }
  if (n.file_size > primary_free()) {
    return;
  }
  FetchRequestPayload fetch;
  fetch.file_id = n.file_id;
  fetch.for_lookup = false;
  SendOp(from.addr, PastOp::kFetchRequest, fetch.Encode());
}

// --- PastryApp dispatch -------------------------------------------------------------------------

void PastNode::Deliver(const DeliverContext& ctx, const SharedBytes& payload) {
  switch (static_cast<PastOp>(ctx.app_type)) {
    case PastOp::kInsertRequest: {
      InsertRequestPayload req;
      if (InsertRequestPayload::Decode(payload, &req)) {
        HandleInsertAtRoot(ctx, req);
      }
      break;
    }
    case PastOp::kLookupRequest: {
      LookupRequestPayload req;
      if (LookupRequestPayload::Decode(payload, &req)) {
        HandleLookupAtRoot(ctx, req);
      }
      break;
    }
    case PastOp::kReclaimRequest: {
      ReclaimRequestPayload req;
      if (ReclaimRequestPayload::Decode(payload, &req)) {
        if (config_.verify_crypto && !req.cert.Verify(broker_key_, &verify_cache_)) {
          ++stats_.bad_certificates;
          obs_.bad_certificates->Inc();
          break;
        }
        HandleReclaimAtRoot(req);
      }
      break;
    }
    default:
      PAST_WARN("PAST node %u: unexpected routed op %u", overlay_->addr(),
                ctx.app_type);
      break;
  }
}

bool PastNode::Forward(const U128& key, uint32_t app_type, const NodeDescriptor& next,
                       SharedBytes* payload) {
  (void)key;
  (void)next;
  switch (static_cast<PastOp>(app_type)) {
    case PastOp::kInsertRequest: {
      if (!config_.cache_on_insert_path || cache_.policy() == CachePolicy::kNone) {
        return true;
      }
      InsertRequestPayload req;
      if (InsertRequestPayload::Decode(*payload, &req)) {
        MaybeCache(req.cert, req.content);
      }
      return true;
    }
    case PastOp::kLookupRequest: {
      LookupRequestPayload req;
      if (!LookupRequestPayload::Decode(*payload, &req)) {
        return true;
      }
      // A transit node holding the file (replica or cached copy) answers
      // directly and absorbs the request — the paper's query load balancing.
      if (const StoredFile* f = store_.Get(req.file_id)) {
        ServeLookup(req.client, f->cert, f->content, /*from_cache=*/false, {});
        return false;
      }
      if (const CachedFile* f = cache_.Get(req.file_id)) {
        ServeLookup(req.client, f->cert, f->content, /*from_cache=*/true, {});
        return false;
      }
      return true;
    }
    default:
      return true;
  }
}

void PastNode::ReceiveDirect(const NodeDescriptor& from, uint32_t app_type,
                             const SharedBytes& payload) {
  switch (static_cast<PastOp>(app_type)) {
    case PastOp::kStoreReplica: {
      StoreReplicaPayload req;
      if (StoreReplicaPayload::Decode(payload, &req)) {
        HandleStoreReplica(req);
      }
      break;
    }
    case PastOp::kDivertStore: {
      DivertStorePayload req;
      if (DivertStorePayload::Decode(payload, &req)) {
        HandleDivertStore(from, req);
      }
      break;
    }
    case PastOp::kDivertResult: {
      DivertResultPayload res;
      if (DivertResultPayload::Decode(payload, &res)) {
        HandleDivertResult(from, res);
      }
      break;
    }
    case PastOp::kStoreReceiptMsg: {
      StoreReceiptPayload msg;
      if (StoreReceiptPayload::Decode(payload, &msg)) {
        HandleStoreReceipt(msg.receipt);
      }
      break;
    }
    case PastOp::kStoreNack: {
      StoreNackPayload nack;
      if (StoreNackPayload::Decode(payload, &nack)) {
        HandleStoreNack(nack);
      }
      break;
    }
    case PastOp::kLookupReply: {
      LookupReplyPayload reply;
      if (LookupReplyPayload::Decode(payload, &reply)) {
        HandleLookupReply(reply);
      }
      break;
    }
    case PastOp::kFetchRequest: {
      FetchRequestPayload req;
      if (FetchRequestPayload::Decode(payload, &req)) {
        HandleFetchRequest(from, req);
      }
      break;
    }
    case PastOp::kFetchReply: {
      FetchReplyPayload reply;
      if (FetchReplyPayload::Decode(payload, &reply)) {
        HandleFetchReply(reply);
      }
      break;
    }
    case PastOp::kReclaimReplica: {
      ReclaimRequestPayload req;
      if (ReclaimRequestPayload::Decode(payload, &req)) {
        HandleReclaimReplica(req);
      }
      break;
    }
    case PastOp::kReclaimReceiptMsg: {
      ReclaimReceiptPayload msg;
      if (ReclaimReceiptPayload::Decode(payload, &msg)) {
        HandleReclaimReceipt(msg.receipt);
      }
      break;
    }
    case PastOp::kCachePush: {
      CachePushPayload push;
      if (CachePushPayload::Decode(payload, &push)) {
        HandleCachePush(push);
      }
      break;
    }
    case PastOp::kReplicaNotify: {
      ReplicaNotifyPayload n;
      if (ReplicaNotifyPayload::Decode(payload, &n)) {
        HandleReplicaNotify(from, n);
      }
      break;
    }
    case PastOp::kAuditChallenge: {
      AuditChallengePayload challenge;
      if (AuditChallengePayload::Decode(payload, &challenge)) {
        HandleAuditChallenge(from, challenge);
      }
      break;
    }
    case PastOp::kAuditResponse: {
      AuditResponsePayload response;
      if (AuditResponsePayload::Decode(payload, &response)) {
        HandleAuditResponse(response);
      }
      break;
    }
    default:
      PAST_WARN("PAST node %u: unexpected direct op %u", overlay_->addr(), app_type);
      break;
  }
}

}  // namespace past
