// CRC32C (Castagnoli, polynomial 0x1EDC6F41) — the checksum on every record
// in the disk storage engine's append-only log and on every transport frame,
// checked on send, on receive and on append. On bulk PAST traffic it runs
// over every stored byte several times per operation, so it is on the hot
// path (not hidden behind I/O).
//
// Two kernels with identical results, chosen at runtime: on x86-64 CPUs with
// SSE4.2, the crc32 instruction over 8-byte words with a byte-wise tail
// (about 8x the table code); elsewhere, portable slice-by-4 (four 256-entry
// tables, one 32-bit word per step). The build adds no -march flag, so
// binaries stay portable.
#pragma once

#include <cstdint>

#include "src/common/bytes.h"

namespace past {

// CRC of `data` continuing from `crc` (the CRC of all preceding bytes).
// Streaming: Crc32cExtend(Crc32cExtend(0, a), b) == Crc32c(a || b).
uint32_t Crc32cExtend(uint32_t crc, ByteSpan data);

// One-shot CRC32C of `data`.
inline uint32_t Crc32c(ByteSpan data) { return Crc32cExtend(0, data); }

namespace detail {

// The portable slice-by-4 kernel, whatever the CPU: the reference the
// differential tests and bench_micro hold Crc32cExtend to.
uint32_t Crc32cExtendPortable(uint32_t crc, ByteSpan data);

// True when Crc32cExtend runs on the SSE4.2 instruction (cached probe).
bool Crc32cHardware();

}  // namespace detail

}  // namespace past
