// Batched SHA-256 with runtime CPU dispatch.
//
// Every phase of zktel — segment commitment, Merkle rebuilds, commitment
// checks — bottoms out in the SHA-256 compression function, and the lanes
// are almost always *independent*: thousands of trace-row leaves, or every
// (left, right) pair of a Merkle level. This layer exposes that batch shape
// directly and dispatches it to the fastest compressor the CPU offers:
//
//   scalar  — the portable FIPS 180-4 implementation in sha256.cpp
//   shani   — x86 SHA-NI single-block fast path (one block per call,
//             hardware rounds; ~5-10x the scalar rate)
//   avx2    — 8-way interleaved multi-buffer compressor (eight independent
//             lanes per instruction stream)
//
// All backends are bit-identical: digests, guest trace rows, receipts and
// claim digests do not change with the backend, so the choice is purely a
// host-side throughput decision. Backends are selected at runtime via CPUID
// (never by -march of the build), so one binary runs everywhere; the
// ZKT_SHA256_BACKEND environment variable or sha256_force_backend() pin a
// specific backend for tests and benchmarks.
//
// Host-side only: guests hash through zvm::Env one traced compression at a
// time and never reach this header (see .zkt-lint.toml guest-determinism
// excludes). That single-block crypto::sha256_compress() — and so the
// streaming Sha256 — also runs on the active backend (SHA-NI when selected),
// which changes no digest or trace row.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "crypto/sha256.h"

namespace zkt::crypto {

enum class Sha256Backend : u8 { scalar = 0, shani = 1, avx2 = 2 };
inline constexpr size_t kSha256BackendCount = 3;

/// Stable lowercase name ("scalar", "shani", "avx2").
const char* sha256_backend_name(Sha256Backend backend);
/// Parse a backend name; nullopt for unknown strings.
std::optional<Sha256Backend> sha256_backend_from_name(std::string_view name);

/// Backend was compiled into this binary (build-time capability).
bool sha256_backend_compiled(Sha256Backend backend);
/// Backend is usable here: compiled in AND supported by this CPU.
bool sha256_backend_available(Sha256Backend backend);
/// The backend sha256_compress_many() currently dispatches to.
Sha256Backend sha256_active_backend();

/// Test/bench hook: pin dispatch to `backend` (must be available), or pass
/// nullopt to restore automatic selection. Returns false — leaving the
/// selection unchanged — if the requested backend is not available.
bool sha256_force_backend(std::optional<Sha256Backend> backend);

/// The portable FIPS 180-4 compression function: the scalar backend, and
/// the reference every other backend is checked against.
Sha256State sha256_compress_portable(const Sha256State& state,
                                     const std::array<u8, 64>& block);

/// Apply one compression per independent lane:
///   states[i] <- compress(states[i], blocks[i])
/// states and blocks must have equal length. Bit-identical to calling
/// sha256_compress_portable() per lane, on every backend.
void sha256_compress_many(std::span<Sha256State> states,
                          std::span<const std::array<u8, 64>> blocks);

/// One-shot SHA-256 of many independent messages, batched across lanes:
///   out[i] = SHA256(tag ? *tag || msgs[i] : msgs[i])
/// The optional one-byte tag supports the Merkle domain separation without
/// materializing prefixed copies of every message.
std::vector<Digest32> sha256_many(std::span<const BytesView> msgs,
                                  std::optional<u8> tag);

/// Cumulative dispatch accounting since process start, per backend. The obs
/// layer sits above crypto in the module DAG, so callers (prover, sharded
/// service, benches) publish these into obs::Registry themselves.
struct Sha256BackendStats {
  u64 blocks = 0;   ///< compression-function applications
  u64 batches = 0;  ///< sha256_compress_many() calls
};
Sha256BackendStats sha256_backend_stats(Sha256Backend backend);

}  // namespace zkt::crypto
