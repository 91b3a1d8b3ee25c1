// Umbrella header: the public API of the zktel library.
//
// Typical prover-side flow:
//   CommitmentBoard board;                       // public bulletin board
//   ... routers publish signed commitments ...
//   AggregationService agg(board);
//   agg.aggregate(batches);                      // Algorithm-1 round + proof
//   QueryService queries(agg);
//   auto resp = queries.run(Query::sum(QField::hop_sum)
//                               .and_where(QField::src_ip, CmpOp::eq, ip));
//   auto report = queries.grouped(Query::sum(QField::bytes),
//                                 QField::protocol);   // GROUP BY, one proof
//
// Typical verifier-side flow — the Auditor verifies every receipt kind with
// one verifier under one soundness floor (AuditorOptions::min_queries):
//   Auditor auditor(board);
//   auditor.accept_round(round.receipt);         // verify + chain one round
//   auditor.verify_query(resp->receipt,
//                        {.expected_query = &query});  // verify + extract
//   auditor.verify_grouped(report->receipt);     // likewise verify_heavy_hitters,
//                                                // verify_cardinality,
//                                                // verify_histogram
//
// Catching up on a long chain (receipts saved with save_receipts):
//   auto source = ReceiptFileSource::open("chain.rcpt");
//   auditor.audit(source.value());               // O(1)-memory in-order audit
#pragma once

#include "core/auditor.h"
#include "core/clog.h"
#include "core/commitment.h"
#include "core/guests.h"
#include "core/io.h"
#include "core/query.h"
#include "core/service.h"
#include "crypto/merkle.h"
#include "crypto/schnorr.h"
#include "crypto/sha256.h"
#include "netflow/cache.h"
#include "netflow/record.h"
#include "netflow/v9.h"
#include "store/logstore.h"
#include "zvm/prover.h"
#include "zvm/verifier.h"
