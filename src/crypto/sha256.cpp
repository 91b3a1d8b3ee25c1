#include "crypto/sha256.h"

#include <cstring>

#include "crypto/sha256_backend.h"

namespace zkt::crypto {

namespace {

constexpr std::array<u32, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr u32 rotr(u32 x, int n) { return (x >> n) | (x << (32 - n)); }

}  // namespace

Digest32 Sha256State::to_digest() const {
  Digest32 d;
  for (int i = 0; i < 8; ++i) {
    d.bytes[4 * i + 0] = static_cast<u8>(h[i] >> 24);
    d.bytes[4 * i + 1] = static_cast<u8>(h[i] >> 16);
    d.bytes[4 * i + 2] = static_cast<u8>(h[i] >> 8);
    d.bytes[4 * i + 3] = static_cast<u8>(h[i]);
  }
  return d;
}

Sha256State Sha256State::from_digest(const Digest32& d) {
  Sha256State s;
  for (int i = 0; i < 8; ++i) {
    s.h[i] = (static_cast<u32>(d.bytes[4 * i + 0]) << 24) |
             (static_cast<u32>(d.bytes[4 * i + 1]) << 16) |
             (static_cast<u32>(d.bytes[4 * i + 2]) << 8) |
             static_cast<u32>(d.bytes[4 * i + 3]);
  }
  return s;
}

Sha256State Sha256State::initial() {
  return Sha256State{{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                      0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19}};
}

Sha256State sha256_compress_portable(const Sha256State& state,
                                     const std::array<u8, 64>& block) {
  u32 w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<u32>(block[4 * i + 0]) << 24) |
           (static_cast<u32>(block[4 * i + 1]) << 16) |
           (static_cast<u32>(block[4 * i + 2]) << 8) |
           static_cast<u32>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const u32 s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const u32 s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  u32 a = state.h[0], b = state.h[1], c = state.h[2], d = state.h[3];
  u32 e = state.h[4], f = state.h[5], g = state.h[6], h = state.h[7];

  for (int i = 0; i < 64; ++i) {
    const u32 s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const u32 ch = (e & f) ^ (~e & g);
    const u32 temp1 = h + s1 + ch + kK[i] + w[i];
    const u32 s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const u32 maj = (a & b) ^ (a & c) ^ (b & c);
    const u32 temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  Sha256State out;
  out.h = {state.h[0] + a, state.h[1] + b, state.h[2] + c, state.h[3] + d,
           state.h[4] + e, state.h[5] + f, state.h[6] + g, state.h[7] + h};
  return out;
}

void Sha256::update(BytesView data) {
  if (data.empty()) return;  // empty spans may carry a null data()
  total_len_ += data.size();
  size_t offset = 0;
  if (buffer_len_ > 0) {
    const size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ == 64) {
      state_ = sha256_compress(state_, buffer_);
      ++compressions_;
      buffer_len_ = 0;
    }
  }
  while (data.size() - offset >= 64) {
    std::array<u8, 64> block;
    std::memcpy(block.data(), data.data() + offset, 64);
    state_ = sha256_compress(state_, block);
    ++compressions_;
    offset += 64;
  }
  const size_t rest = data.size() - offset;
  if (rest > 0) {
    std::memcpy(buffer_.data(), data.data() + offset, rest);
    buffer_len_ = rest;
  }
}

Digest32 Sha256::finalize() {
  const u64 bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
    state_ = sha256_compress(state_, buffer_);
    ++compressions_;
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<u8>(bit_len >> (56 - 8 * i));
  }
  state_ = sha256_compress(state_, buffer_);
  ++compressions_;
  return state_.to_digest();
}

Digest32 sha256(BytesView data) {
  Sha256 h;
  h.update(data);
  return h.finalize();
}

Digest32 sha256(std::string_view s) {
  Sha256 h;
  h.update(s);
  return h.finalize();
}

Digest32 sha256_pair(const Digest32& left, const Digest32& right) {
  Sha256 h;
  h.update(left.view());
  h.update(right.view());
  return h.finalize();
}

void sha256_padded_blocks(
    BytesView data, const std::function<void(const std::array<u8, 64>&)>& fn) {
  std::array<u8, 64> block;
  size_t pos = 0;
  while (data.size() - pos >= 64) {
    std::memcpy(block.data(), data.data() + pos, 64);
    fn(block);
    pos += 64;
  }
  const size_t rest = data.size() - pos;
  std::memset(block.data(), 0, 64);
  if (rest > 0) std::memcpy(block.data(), data.data() + pos, rest);
  block[rest] = 0x80;
  const u64 bit_len = static_cast<u64>(data.size()) * 8;
  if (rest + 1 > 56) {
    fn(block);
    std::memset(block.data(), 0, 64);
  }
  for (int i = 0; i < 8; ++i) {
    block[56 + i] = static_cast<u8>(bit_len >> (56 - 8 * i));
  }
  fn(block);
}

Digest32 hmac_sha256(BytesView key, BytesView data) {
  std::array<u8, 64> k{};
  if (key.size() > 64) {
    const Digest32 kd = sha256(key);
    std::memcpy(k.data(), kd.bytes.data(), 32);
  } else {
    std::memcpy(k.data(), key.data(), key.size());
  }

  std::array<u8, 64> ipad, opad;
  for (int i = 0; i < 64; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }

  Sha256 inner;
  inner.update(BytesView(ipad.data(), 64));
  inner.update(data);
  const Digest32 inner_digest = inner.finalize();

  Sha256 outer;
  outer.update(BytesView(opad.data(), 64));
  outer.update(inner_digest.view());
  return outer.finalize();
}

Bytes hkdf_sha256(BytesView ikm, BytesView salt, BytesView info, size_t len) {
  // Extract.
  const Digest32 prk = hmac_sha256(salt, ikm);
  // Expand.
  Bytes okm;
  okm.reserve(len);
  Bytes t;
  u8 counter = 1;
  while (okm.size() < len) {
    Bytes block = t;
    append(block, info);
    block.push_back(counter++);
    const Digest32 d = hmac_sha256(prk.view(), block);
    t.assign(d.bytes.begin(), d.bytes.end());
    const size_t take = std::min<size_t>(32, len - okm.size());
    okm.insert(okm.end(), t.begin(), t.begin() + take);
  }
  return okm;
}

}  // namespace zkt::crypto
