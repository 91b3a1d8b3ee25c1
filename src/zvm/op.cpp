#include "zvm/op.h"

#include <algorithm>

#include "crypto/merkle.h"

namespace zkt::zvm {

u64 alu_eval(AluOp op, u64 a, u64 b) {
  switch (op) {
    case AluOp::add: return a + b;
    case AluOp::sub: return a - b;
    case AluOp::mul: return a * b;
    case AluOp::divu: return b == 0 ? 0 : a / b;
    case AluOp::remu: return b == 0 ? a : a % b;
    case AluOp::and_: return a & b;
    case AluOp::or_: return a | b;
    case AluOp::xor_: return a ^ b;
    case AluOp::shl: return a << (b & 63);
    case AluOp::shr: return a >> (b & 63);
    case AluOp::eq: return a == b ? 1 : 0;
    case AluOp::ltu: return a < b ? 1 : 0;
  }
  return 0;
}

OpKind TraceRow::kind() const {
  return static_cast<OpKind>(op.index() + 1);
}

namespace {

/// Fills an EncodedRow front to back. Every row kind has a fixed size no
/// larger than EncodedRow::kMaxBytes, so no write needs a bounds check.
class RowWriter {
 public:
  RowWriter(EncodedRow& out, OpKind kind) : out_(out) {
    out_.size = 0;
    u8v(static_cast<u8>(kind));
  }

  void u8v(u8 v) { out_.bytes[out_.size++] = v; }
  void u32v(u32 v) {
    for (int i = 0; i < 4; ++i) u8v(static_cast<u8>(v >> (8 * i)));
  }
  void u64v(u64 v) {
    for (int i = 0; i < 8; ++i) u8v(static_cast<u8>(v >> (8 * i)));
  }
  void state(const crypto::Sha256State& s) {
    for (u32 word : s.h) u32v(word);
  }
  template <size_t N>
  void fixed(const std::array<u8, N>& a) {
    std::copy(a.begin(), a.end(), out_.bytes.begin() + out_.size);
    out_.size += N;
  }

 private:
  EncodedRow& out_;
};

Result<crypto::Sha256State> read_state(Reader& r) {
  crypto::Sha256State s;
  for (auto& word : s.h) {
    auto v = r.u32v();
    if (!v.ok()) return v.error();
    word = v.value();
  }
  return s;
}

}  // namespace

EncodedRow encode_row(const RowSha256& row) {
  EncodedRow out;
  RowWriter w(out, OpKind::sha256_compress);
  w.state(row.state_in);
  w.fixed(row.block);
  w.state(row.state_out);
  return out;
}

EncodedRow encode_row(const RowAlu& row) {
  EncodedRow out;
  RowWriter w(out, OpKind::alu);
  w.u8v(static_cast<u8>(row.op));
  w.u64v(row.a);
  w.u64v(row.b);
  w.u64v(row.c);
  return out;
}

EncodedRow encode_row(const RowAssert& row) {
  EncodedRow out;
  RowWriter w(out, OpKind::assert_true);
  w.u64v(row.cond);
  w.fixed(row.context.bytes);
  return out;
}

EncodedRow encode_row(const RowAssertEqDigest& row) {
  EncodedRow out;
  RowWriter w(out, OpKind::assert_eq_digest);
  w.fixed(row.a.bytes);
  w.fixed(row.b.bytes);
  return out;
}

EncodedRow encode_row(const RowBindDigest& row) {
  EncodedRow out;
  RowWriter w(out, OpKind::bind_digest);
  w.u8v(static_cast<u8>(row.target));
  w.fixed(row.computed.bytes);
  return out;
}

EncodedRow encode_row(const RowAssume& row) {
  EncodedRow out;
  RowWriter w(out, OpKind::assume);
  w.fixed(row.image_id.bytes);
  w.fixed(row.claim_digest.bytes);
  return out;
}

namespace {

EncodedRow encode(const TraceRow& row) {
  return std::visit([](const auto& r) { return encode_row(r); }, row.op);
}

}  // namespace

void TraceRow::serialize(Writer& w) const { w.raw(encode(*this).view()); }

Result<TraceRow> TraceRow::deserialize(Reader& r) {
  auto kind_byte = r.u8v();
  if (!kind_byte.ok()) return kind_byte.error();
  TraceRow row;
  switch (static_cast<OpKind>(kind_byte.value())) {
    case OpKind::sha256_compress: {
      RowSha256 x;
      auto sin = read_state(r);
      if (!sin.ok()) return sin.error();
      x.state_in = sin.value();
      ZKT_TRY(r.fixed(x.block));
      auto sout = read_state(r);
      if (!sout.ok()) return sout.error();
      x.state_out = sout.value();
      row.op = x;
      return row;
    }
    case OpKind::alu: {
      RowAlu x;
      auto opb = r.u8v();
      if (!opb.ok()) return opb.error();
      x.op = static_cast<AluOp>(opb.value());
      if (opb.value() < 1 || opb.value() > static_cast<u8>(AluOp::ltu)) {
        return Error{Errc::parse_error, "bad alu op"};
      }
      auto a = r.u64v(), b = r.u64v(), c = r.u64v();
      if (!a.ok()) return a.error();
      if (!b.ok()) return b.error();
      if (!c.ok()) return c.error();
      x.a = a.value();
      x.b = b.value();
      x.c = c.value();
      row.op = x;
      return row;
    }
    case OpKind::assert_true: {
      RowAssert x;
      auto cond = r.u64v();
      if (!cond.ok()) return cond.error();
      x.cond = cond.value();
      ZKT_TRY(r.fixed(x.context.bytes));
      row.op = x;
      return row;
    }
    case OpKind::assert_eq_digest: {
      RowAssertEqDigest x;
      ZKT_TRY(r.fixed(x.a.bytes));
      ZKT_TRY(r.fixed(x.b.bytes));
      row.op = x;
      return row;
    }
    case OpKind::bind_digest: {
      RowBindDigest x;
      auto t = r.u8v();
      if (!t.ok()) return t.error();
      if (t.value() != 1 && t.value() != 2) {
        return Error{Errc::parse_error, "bad bind target"};
      }
      x.target = static_cast<BindTarget>(t.value());
      ZKT_TRY(r.fixed(x.computed.bytes));
      row.op = x;
      return row;
    }
    case OpKind::assume: {
      RowAssume x;
      ZKT_TRY(r.fixed(x.image_id.bytes));
      ZKT_TRY(r.fixed(x.claim_digest.bytes));
      row.op = x;
      return row;
    }
  }
  return Error{Errc::parse_error, "unknown trace row kind"};
}

Digest32 TraceRow::leaf_digest() const {
  return crypto::MerkleTree::hash_leaf(encode(*this).view());
}

Status TraceRow::check() const {
  return std::visit(
      [](const auto& row) -> Status {
        using T = std::decay_t<decltype(row)>;
        if constexpr (std::is_same_v<T, RowSha256>) {
          if (crypto::sha256_compress(row.state_in, row.block) !=
              row.state_out) {
            return Error{Errc::proof_invalid, "sha256 row mismatch"};
          }
        } else if constexpr (std::is_same_v<T, RowAlu>) {
          if (alu_eval(row.op, row.a, row.b) != row.c) {
            return Error{Errc::proof_invalid, "alu row mismatch"};
          }
        } else if constexpr (std::is_same_v<T, RowAssert>) {
          if (row.cond == 0) {
            return Error{Errc::proof_invalid, "asserted condition is false"};
          }
        } else if constexpr (std::is_same_v<T, RowAssertEqDigest>) {
          if (row.a != row.b) {
            return Error{Errc::proof_invalid, "digest equality assert failed"};
          }
        }
        // bind_digest / assume rows carry claims checked by the verifier
        // against the receipt claim; internally they are always consistent.
        return Status::Ok();
      },
      op);
}

}  // namespace zkt::zvm
