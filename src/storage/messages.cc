#include "src/storage/messages.h"

namespace past {
namespace {

// All payload decoders require full consumption of the buffer. Over a
// SharedBytes message, content blobs decode as slices of it.
template <typename Data, typename F>
bool DecodeAll(const Data& data, F&& body) {
  Reader r(data);
  return body(&r) && r.AtEnd();
}

constexpr size_t kDescriptorBytes = 20;

// Writes the content blob into a buffer sized once for it and the `tail`
// bytes of fields that follow it, so those fields never move the content.
void ContentBlob(Writer* w, const SharedBytes& content, size_t tail) {
  w->Reserve(4 + content.size() + tail);
  w->Blob(content);
}

}  // namespace

Bytes InsertRequestPayload::Encode() const {
  Writer w;
  cert.EncodeTo(&w);
  ContentBlob(&w, content, kDescriptorBytes);
  EncodeDescriptor(&w, client);
  return w.Take();
}

bool InsertRequestPayload::Decode(const SharedBytes& data, InsertRequestPayload* out) {
  return DecodeAll(data, [&](Reader* r) {
    return FileCertificate::DecodeFrom(r, &out->cert) && r->Blob(&out->content) &&
           DecodeDescriptor(r, &out->client);
  });
}

Bytes StoreReplicaPayload::Encode() const {
  Writer w;
  cert.EncodeTo(&w);
  ContentBlob(&w, content, kDescriptorBytes + 1);
  EncodeDescriptor(&w, client);
  w.Bool(divert_allowed);
  return w.Take();
}

bool StoreReplicaPayload::Decode(const SharedBytes& data, StoreReplicaPayload* out) {
  return DecodeAll(data, [&](Reader* r) {
    return FileCertificate::DecodeFrom(r, &out->cert) && r->Blob(&out->content) &&
           DecodeDescriptor(r, &out->client) && r->Bool(&out->divert_allowed);
  });
}

Bytes DivertStorePayload::Encode() const {
  Writer w;
  cert.EncodeTo(&w);
  ContentBlob(&w, content, 2 * kDescriptorBytes);
  EncodeDescriptor(&w, client);
  EncodeDescriptor(&w, primary);
  return w.Take();
}

bool DivertStorePayload::Decode(const SharedBytes& data, DivertStorePayload* out) {
  return DecodeAll(data, [&](Reader* r) {
    return FileCertificate::DecodeFrom(r, &out->cert) && r->Blob(&out->content) &&
           DecodeDescriptor(r, &out->client) && DecodeDescriptor(r, &out->primary);
  });
}

Bytes DivertResultPayload::Encode() const {
  Writer w;
  w.Id160(file_id);
  w.Bool(accepted);
  EncodeDescriptor(&w, client);
  return w.Take();
}

bool DivertResultPayload::Decode(ByteSpan data, DivertResultPayload* out) {
  return DecodeAll(data, [&](Reader* r) {
    return r->Id160(&out->file_id) && r->Bool(&out->accepted) &&
           DecodeDescriptor(r, &out->client);
  });
}

Bytes StoreReceiptPayload::Encode() const {
  Writer w;
  receipt.EncodeTo(&w);
  return w.Take();
}

bool StoreReceiptPayload::Decode(ByteSpan data, StoreReceiptPayload* out) {
  return DecodeAll(data,
                   [&](Reader* r) { return StoreReceipt::DecodeFrom(r, &out->receipt); });
}

Bytes StoreNackPayload::Encode() const {
  Writer w;
  w.Id160(file_id);
  w.U8(reason);
  return w.Take();
}

bool StoreNackPayload::Decode(ByteSpan data, StoreNackPayload* out) {
  return DecodeAll(data, [&](Reader* r) {
    return r->Id160(&out->file_id) && r->U8(&out->reason);
  });
}

Bytes LookupRequestPayload::Encode() const {
  Writer w;
  w.Id160(file_id);
  EncodeDescriptor(&w, client);
  return w.Take();
}

bool LookupRequestPayload::Decode(ByteSpan data, LookupRequestPayload* out) {
  return DecodeAll(data, [&](Reader* r) {
    return r->Id160(&out->file_id) && DecodeDescriptor(r, &out->client);
  });
}

Bytes LookupReplyPayload::Encode() const {
  Writer w;
  cert.EncodeTo(&w);
  ContentBlob(&w, content, 1 + kDescriptorBytes);
  w.Bool(from_cache);
  EncodeDescriptor(&w, replier);
  return w.Take();
}

bool LookupReplyPayload::Decode(const SharedBytes& data, LookupReplyPayload* out) {
  return DecodeAll(data, [&](Reader* r) {
    return FileCertificate::DecodeFrom(r, &out->cert) && r->Blob(&out->content) &&
           r->Bool(&out->from_cache) && DecodeDescriptor(r, &out->replier);
  });
}

Bytes FetchRequestPayload::Encode() const {
  Writer w;
  w.Id160(file_id);
  EncodeDescriptor(&w, client);
  w.Bool(for_lookup);
  return w.Take();
}

bool FetchRequestPayload::Decode(ByteSpan data, FetchRequestPayload* out) {
  return DecodeAll(data, [&](Reader* r) {
    return r->Id160(&out->file_id) && DecodeDescriptor(r, &out->client) &&
           r->Bool(&out->for_lookup);
  });
}

Bytes FetchReplyPayload::Encode() const {
  Writer w;
  w.Bool(found);
  cert.EncodeTo(&w);
  ContentBlob(&w, content, 0);
  return w.Take();
}

bool FetchReplyPayload::Decode(const SharedBytes& data, FetchReplyPayload* out) {
  return DecodeAll(data, [&](Reader* r) {
    return r->Bool(&out->found) && FileCertificate::DecodeFrom(r, &out->cert) &&
           r->Blob(&out->content);
  });
}

Bytes ReclaimRequestPayload::Encode() const {
  Writer w;
  cert.EncodeTo(&w);
  EncodeDescriptor(&w, client);
  return w.Take();
}

bool ReclaimRequestPayload::Decode(ByteSpan data, ReclaimRequestPayload* out) {
  return DecodeAll(data, [&](Reader* r) {
    return ReclaimCertificate::DecodeFrom(r, &out->cert) &&
           DecodeDescriptor(r, &out->client);
  });
}

Bytes ReclaimReceiptPayload::Encode() const {
  Writer w;
  receipt.EncodeTo(&w);
  return w.Take();
}

bool ReclaimReceiptPayload::Decode(ByteSpan data, ReclaimReceiptPayload* out) {
  return DecodeAll(
      data, [&](Reader* r) { return ReclaimReceipt::DecodeFrom(r, &out->receipt); });
}

Bytes CachePushPayload::Encode() const {
  Writer w;
  cert.EncodeTo(&w);
  ContentBlob(&w, content, 0);
  return w.Take();
}

bool CachePushPayload::Decode(const SharedBytes& data, CachePushPayload* out) {
  return DecodeAll(data, [&](Reader* r) {
    return FileCertificate::DecodeFrom(r, &out->cert) && r->Blob(&out->content);
  });
}

Bytes ReplicaNotifyPayload::Encode() const {
  Writer w;
  w.Id160(file_id);
  w.U64(file_size);
  return w.Take();
}

bool ReplicaNotifyPayload::Decode(ByteSpan data, ReplicaNotifyPayload* out) {
  return DecodeAll(data, [&](Reader* r) {
    return r->Id160(&out->file_id) && r->U64(&out->file_size);
  });
}

Bytes AuditChallengePayload::Encode() const {
  Writer w;
  w.Id160(file_id);
  w.U64(nonce);
  return w.Take();
}

bool AuditChallengePayload::Decode(ByteSpan data, AuditChallengePayload* out) {
  return DecodeAll(data, [&](Reader* r) {
    return r->Id160(&out->file_id) && r->U64(&out->nonce);
  });
}

Bytes AuditResponsePayload::Encode() const {
  Writer w;
  w.Id160(file_id);
  w.U64(nonce);
  w.Bool(has_file);
  w.Blob(digest);
  return w.Take();
}

bool AuditResponsePayload::Decode(ByteSpan data, AuditResponsePayload* out) {
  return DecodeAll(data, [&](Reader* r) {
    return r->Id160(&out->file_id) && r->U64(&out->nonce) && r->Bool(&out->has_file) &&
           r->Blob(&out->digest);
  });
}

}  // namespace past
