// PAST application payloads, carried inside Pastry routed / direct messages.
//
// Routed operations (keyed by the 128 msbs of the fileId): insert, lookup,
// reclaim. Direct operations: replica placement and diversion, receipts back
// to the client, fetches, cache pushes, replica maintenance and audits.
//
// File content is a SharedBytes (DESIGN.md "Content buffers"). The payloads
// that carry content decode from the received message's SharedBytes and
// slice the content out of it, so a replica stored or a file cached from a
// message shares that message's buffer instead of copying it. Their
// encoders size the output once, before the content blob, so the fields
// after the content never move it. Encodings are byte-identical to the
// plain serializer's.
#pragma once

#include "src/common/serializer.h"
#include "src/pastry/messages.h"
#include "src/storage/certificates.h"

namespace past {

enum class PastOp : uint32_t {
  // Routed by fileId.
  kInsertRequest = 100,
  kLookupRequest = 101,
  kReclaimRequest = 102,
  // Direct.
  kStoreReplica = 110,    // root -> replica-set member
  kDivertStore = 111,     // overloaded member -> diversion target
  kDivertResult = 112,    // diversion target -> member
  kStoreReceiptMsg = 113, // member -> client
  kStoreNack = 114,       // member -> client
  kLookupReply = 115,     // holder -> client
  kFetchRequest = 116,    // root/peer -> holder
  kFetchReply = 117,      // holder -> requester (or straight to client)
  kReclaimReplica = 118,  // root -> member
  kReclaimReceiptMsg = 119,  // member -> client
  kCachePush = 120,       // holder -> node near the client
  kReplicaNotify = 121,   // member -> new member after leaf-set change
  kAuditChallenge = 122,
  kAuditResponse = 123,
};

struct InsertRequestPayload {
  FileCertificate cert;
  SharedBytes content;
  NodeDescriptor client;

  Bytes Encode() const;
  [[nodiscard]] static bool Decode(const SharedBytes& data, InsertRequestPayload* out);
};

struct StoreReplicaPayload {
  FileCertificate cert;
  SharedBytes content;
  NodeDescriptor client;
  bool divert_allowed = true;

  Bytes Encode() const;
  [[nodiscard]] static bool Decode(const SharedBytes& data, StoreReplicaPayload* out);
};

struct DivertStorePayload {
  FileCertificate cert;
  SharedBytes content;
  NodeDescriptor client;
  NodeDescriptor primary;  // the node that keeps the pointer

  Bytes Encode() const;
  [[nodiscard]] static bool Decode(const SharedBytes& data, DivertStorePayload* out);
};

struct DivertResultPayload {
  FileId file_id;
  bool accepted = false;
  NodeDescriptor client;

  Bytes Encode() const;
  [[nodiscard]] static bool Decode(ByteSpan data, DivertResultPayload* out);
};

struct StoreReceiptPayload {
  StoreReceipt receipt;

  Bytes Encode() const;
  [[nodiscard]] static bool Decode(ByteSpan data, StoreReceiptPayload* out);
};

struct StoreNackPayload {
  FileId file_id;
  uint8_t reason = 0;  // StatusCode, narrowed

  Bytes Encode() const;
  [[nodiscard]] static bool Decode(ByteSpan data, StoreNackPayload* out);
};

struct LookupRequestPayload {
  FileId file_id;
  NodeDescriptor client;

  Bytes Encode() const;
  [[nodiscard]] static bool Decode(ByteSpan data, LookupRequestPayload* out);
};

struct LookupReplyPayload {
  FileCertificate cert;
  SharedBytes content;
  bool from_cache = false;
  NodeDescriptor replier;

  Bytes Encode() const;
  [[nodiscard]] static bool Decode(const SharedBytes& data, LookupReplyPayload* out);
};

struct FetchRequestPayload {
  FileId file_id;
  // When valid, the holder answers the client directly (lookup indirection
  // for diverted replicas); otherwise it answers the requester (maintenance).
  NodeDescriptor client;
  bool for_lookup = false;

  Bytes Encode() const;
  [[nodiscard]] static bool Decode(ByteSpan data, FetchRequestPayload* out);
};

struct FetchReplyPayload {
  bool found = false;
  FileCertificate cert;
  SharedBytes content;

  Bytes Encode() const;
  [[nodiscard]] static bool Decode(const SharedBytes& data, FetchReplyPayload* out);
};

struct ReclaimRequestPayload {
  ReclaimCertificate cert;
  NodeDescriptor client;

  Bytes Encode() const;
  [[nodiscard]] static bool Decode(ByteSpan data, ReclaimRequestPayload* out);
};

struct ReclaimReceiptPayload {
  ReclaimReceipt receipt;

  Bytes Encode() const;
  [[nodiscard]] static bool Decode(ByteSpan data, ReclaimReceiptPayload* out);
};

struct CachePushPayload {
  FileCertificate cert;
  SharedBytes content;

  Bytes Encode() const;
  [[nodiscard]] static bool Decode(const SharedBytes& data, CachePushPayload* out);
};

struct ReplicaNotifyPayload {
  FileId file_id;
  uint64_t file_size = 0;

  Bytes Encode() const;
  [[nodiscard]] static bool Decode(ByteSpan data, ReplicaNotifyPayload* out);
};

struct AuditChallengePayload {
  FileId file_id;
  uint64_t nonce = 0;

  Bytes Encode() const;
  [[nodiscard]] static bool Decode(ByteSpan data, AuditChallengePayload* out);
};

struct AuditResponsePayload {
  FileId file_id;
  uint64_t nonce = 0;
  bool has_file = false;
  Bytes digest;  // SHA-256(content || nonce) — or size-keyed digest for
                 // synthetic content

  Bytes Encode() const;
  [[nodiscard]] static bool Decode(ByteSpan data, AuditResponsePayload* out);
};

}  // namespace past

