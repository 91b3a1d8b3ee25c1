#!/bin/sh
# End-to-end test of the CLI tools: simulate -> prove -> verify -> inspect,
# a sharded run's tree seals, the epoch ladder's catch-up, unknown flags,
# plus the tamper paths (a doctored store must make zkt-prove fail, and
# corrupted receipt or seal files zkt-verify).
# Run by ctest with the build directory as $1.
set -e

BUILD_DIR="${1:?usage: cli_pipeline_test.sh BUILD_DIR}"
TOOLS="$BUILD_DIR/tools"
WORK="$(mktemp -d /tmp/zkt_cli_test.XXXXXX)"
trap 'rm -rf "$WORK"' EXIT

echo "== honest pipeline =="
"$TOOLS/zkt-sim" --out-dir "$WORK/data" --packets 3000 --flows 40 \
    --duration-ms 8000 --seed 7
"$TOOLS/zkt-prove" --data-dir "$WORK/data" \
    --query "sum(bytes) where protocol = 6"
"$TOOLS/zkt-verify" --data-dir "$WORK/data" \
    --query "sum(bytes) where protocol = 6"
"$TOOLS/zkt-inspect" --commitments "$WORK/data/commitments.bin" \
    "$WORK/data/aggregation_receipts.bin" "$WORK/data/query_receipt.bin" \
    > /dev/null

echo "== selective and grouped query modes =="
"$TOOLS/zkt-prove" --data-dir "$WORK/data" --query "count" --selective
"$TOOLS/zkt-verify" --data-dir "$WORK/data" --query "count"
"$TOOLS/zkt-prove" --data-dir "$WORK/data" --query "sum(packets)" \
    --group-by protocol
"$TOOLS/zkt-verify" --data-dir "$WORK/data" --query "sum(packets)"

echo "== sharded rounds fold into one tree seal per window =="
"$TOOLS/zkt-sim" --out-dir "$WORK/sharded" --packets 3000 --flows 40 \
    --duration-ms 8000 --seed 7
"$TOOLS/zkt-prove" --data-dir "$WORK/sharded" --shards 2 > "$WORK/sharded.out"
WINDOWS=$(grep -c "^  window " "$WORK/sharded.out")
SEALS=$("$TOOLS/zkt-inspect" "$WORK/sharded/tree_seals.bin" \
    | grep -c "^\[[0-9]*\] zkt.guest.join")
if [ "$WINDOWS" -lt 1 ] || [ "$SEALS" -ne "$WINDOWS" ]; then
  echo "FAIL: $WINDOWS sharded windows but $SEALS decoded tree seals"
  exit 1
fi
if "$TOOLS/zkt-prove" --data-dir "$WORK/sharded" --shards 2 \
    --join-fanout 1 > /dev/null 2> "$WORK/fanout.err"; then
  echo "FAIL: zkt-prove accepted --join-fanout 1"
  exit 1
fi
grep -q "at least 2" "$WORK/fanout.err"

echo "== epoch ladder: catch-up, inspect, a flipped byte =="
"$TOOLS/zkt-sim" --out-dir "$WORK/epoch" --packets 3000 --flows 40 \
    --duration-ms 25000 --seed 7
"$TOOLS/zkt-prove" --data-dir "$WORK/epoch" --epoch-every 2
"$TOOLS/zkt-verify" --data-dir "$WORK/epoch" --catch-up > "$WORK/catchup.out"
grep -q "caught up: 1 seal(s) covering 4 rounds, 1 suffix" "$WORK/catchup.out"
"$TOOLS/zkt-inspect" "$WORK/epoch/epoch_seals.bin" > "$WORK/seals.out"
DECLARED=$(sed -n 's/^.*: \([0-9]*\) epoch seal(s)$/\1/p' "$WORK/seals.out")
DECODED=$(grep -c "^    magic EPSEAL1$" "$WORK/seals.out")
JOURNALS=$(grep -c "^    journal.magic EPOCH1$" "$WORK/seals.out")
if [ "$DECLARED" -lt 1 ] || [ "$DECODED" -ne "$DECLARED" ] || \
    [ "$JOURNALS" -ne "$DECLARED" ]; then
  echo "FAIL: $DECLARED epoch seals but $DECODED decoded, $JOURNALS journals"
  exit 1
fi
SIZE=$(wc -c < "$WORK/epoch/epoch_seals.bin")
printf '\377' | dd of="$WORK/epoch/epoch_seals.bin" bs=1 \
    seek=$((SIZE / 2)) count=1 conv=notrunc 2> /dev/null
if "$TOOLS/zkt-verify" --data-dir "$WORK/epoch" --catch-up \
    > /dev/null 2>&1; then
  echo "FAIL: catch-up accepted a corrupted epoch_seals.bin"
  exit 1
fi

echo "== unknown flags are errors, not ignored =="
if "$TOOLS/zkt-verify" --data-dir "$WORK/data" --stream \
    > /dev/null 2> "$WORK/stream.err"; then
  echo "FAIL: zkt-verify accepted the unknown flag --stream"
  exit 1
fi
grep -q "unknown flag --stream" "$WORK/stream.err"
if "$TOOLS/zkt-prove" --data-dir "$WORK/sharded" --shard 2 \
    > /dev/null 2> "$WORK/shard.err"; then
  echo "FAIL: zkt-prove accepted the unknown flag --shard"
  exit 1
fi
grep -q "unknown flag --shard" "$WORK/shard.err"

echo "== wrong expected query must be rejected =="
if "$TOOLS/zkt-verify" --data-dir "$WORK/data" --query "sum(bytes)" \
    > /dev/null 2>&1; then
  echo "FAIL: verifier accepted a receipt for a different query"
  exit 1
fi

echo "== logs that mismatch the published commitments must fail proving =="
"$TOOLS/zkt-sim" --out-dir "$WORK/tampered" --packets 1000 --flows 20 \
    --duration-ms 5000 --seed 8
cp "$WORK/tampered/commitments.bin" "$WORK/commitments.orig"
# The provider swaps its raw logs for different traffic (seed change), but
# the public board still holds the original commitments.
"$TOOLS/zkt-sim" --out-dir "$WORK/tampered" --packets 1000 --flows 20 \
    --duration-ms 5000 --seed 10
cp "$WORK/commitments.orig" "$WORK/tampered/commitments.bin"
if "$TOOLS/zkt-prove" --data-dir "$WORK/tampered" > /dev/null 2>&1; then
  echo "FAIL: prover succeeded on logs that do not match the commitments"
  exit 1
fi

echo "== corrupted receipts must fail verification =="
"$TOOLS/zkt-sim" --out-dir "$WORK/forge" --packets 1000 --flows 20 \
    --duration-ms 5000 --seed 9
"$TOOLS/zkt-prove" --data-dir "$WORK/forge"
SIZE=$(wc -c < "$WORK/forge/aggregation_receipts.bin")
OFFSET=$((SIZE / 3))
printf '\377' | dd of="$WORK/forge/aggregation_receipts.bin" bs=1 \
    seek="$OFFSET" count=1 conv=notrunc 2> /dev/null
if "$TOOLS/zkt-verify" --data-dir "$WORK/forge" > /dev/null 2>&1; then
  echo "FAIL: verifier accepted corrupted receipts"
  exit 1
fi

echo "cli pipeline test OK"
