// Self-test of the benchmark's correctness checker: it must accept a
// conserving ledger and a clean safety record, and reject a non-conserving
// ledger, a missing node report, a reported safety violation, a blocked
// transaction, a re-dial and a short WAL replay. Exits 0 when every case
// behaves, 1 otherwise.

#include <cstdio>
#include <string>

#include "checks.h"
#include "common/histogram.h"
#include "report.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) failures++;
}

ecdb::SocketRunStats Ledger(uint64_t offered, uint64_t committed,
                            uint64_t rejected, uint64_t aborted) {
  ecdb::SocketRunStats run;
  for (ecdb::NodeId id = 0; id < 2; ++id) {
    ecdb::SocketNodeReport node;
    node.id = id;
    node.offered = offered;
    node.committed = committed;
    node.rejected = rejected;
    node.terminal_aborted = aborted;
    run.nodes.push_back(node);
  }
  return run;
}

}  // namespace

int main() {
  using perfbench::CheckList;
  {
    CheckList c;
    perfbench::CheckSocketLedger(Ledger(100, 90, 6, 4), 2, &c);
    Expect(c.ok(), "conserving ledger accepted");
  }
  {
    CheckList c;
    perfbench::CheckSocketLedger(Ledger(100, 90, 6, 3), 2, &c);
    Expect(!c.ok(), "non-conserving ledger rejected");
  }
  {
    CheckList c;
    perfbench::CheckSocketLedger(Ledger(100, 90, 6, 4), 3, &c);
    Expect(!c.ok(), "missing node report rejected");
  }
  {
    CheckList c;
    perfbench::CheckSafety({}, &c);
    Expect(c.ok(), "empty violation list accepted");
  }
  {
    CheckList c;
    perfbench::CheckSafety({ecdb::MakeTxnId(3, 17)}, &c);
    Expect(!c.ok(), "reported safety violation rejected");
  }
  {
    CheckList c;
    perfbench::CheckNonBlocking(1, &c);
    Expect(!c.ok(), "blocked transaction rejected");
  }
  {
    CheckList c;
    perfbench::CheckFaultFree(0, perfbench::Redials(2, 2), &c);
    Expect(c.ok(), "first dials of an n=2 mesh are not re-dials");
  }
  {
    CheckList c;
    perfbench::CheckFaultFree(0, perfbench::Redials(3, 2), &c);
    Expect(!c.ok(), "a re-dial rejected");
  }
  {
    CheckList c;
    perfbench::CheckFaultFree(1, 0, &c);
    Expect(!c.ok(), "a termination round in a fault-free run rejected");
  }
  {
    CheckList c;
    perfbench::CheckWalReplay(0, 9, 10, &c);
    Expect(!c.ok(), "short WAL replay rejected");
  }
  {
    ecdb::Histogram h;
    for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
    const double p50 = perfbench::HistogramQuantile(h, 0.5);
    Expect(p50 > 480 && p50 < 520, "interpolated p50 of 1..1000 near 500");
    Expect(perfbench::HistogramQuantile(ecdb::Histogram(), 0.5) == 0,
           "empty histogram quantile is 0");
  }
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
