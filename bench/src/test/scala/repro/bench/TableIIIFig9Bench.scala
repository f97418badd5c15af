package repro.bench

import repro.core.{PreferenceLearning, PreferenceTransfer}
import repro.eval.Tables
import org.scalatest.funsuite.AnyFunSuite

/** Table III (the swept parameters) + Figure 9 (transfer accuracy).
  *
  * Paper Fig 9(a): accuracy grows with the number of labelled T-edge
  * partitions (1X → 4X). Fig 9(b): accuracy is insensitive to amr above
  * 0.5; null-rate grows and runtime falls as amr grows; amr = 0.7 is the
  * chosen trade-off.
  */
class TableIIIFig9Bench extends AnyFunSuite {

  private def tFeats(s: repro.eval.Scenario) = {
    // deterministic subsample keeps the O(n²) similarity sweep bounded
    PreferenceTransfer.features(s.model.index, PreferenceLearning.byKey(s.model.learned)).filter(_.isT).take(3000)
  }

  test("Table III / Fig 9: transfer parameter study (D2-lite)") {
    val s = BenchScenarios.d2
    println("Table III — parameters of L2R: #T-edges ∈ {1X..5X (default 5X)}, amr ∈ {0.5..0.9 (default 0.7)}")
    val feats = tFeats(s)
    assert(feats.size >= 20, s"need enough T-edges for the study, got ${feats.size}")
    val (parts, amrSweep, txt) = Tables.fig9(feats, 0.7, Seq(0.5, 0.6, 0.7, 0.8, 0.9))
    println(s"=== ${s.name} (${feats.size} T-edges) ===\n" + txt)

    // Fig 9(a) shape: more training partitions do not hurt
    val accs = parts.map(_._2.accuracy)
    assert(accs.last >= accs.head - 0.05, s"4X should be ≥ 1X − ε: $accs")
    assert(accs.forall(a => a >= 0.0 && a <= 1.0))

    // Fig 9(b) shape: nnz (and hence work) decreases with amr; null rate
    // does not decrease
    val byAmr = amrSweep.map(_._2)
    assert(byAmr.head.nnz >= byAmr.last.nnz, "higher amr must sparsify the adjacency")
    assert(byAmr.last.nullRate >= byAmr.head.nullRate - 1e-9)
  }

  test("Fig 9: same study on D1-lite") {
    val s = BenchScenarios.d1
    val feats = tFeats(s)
    assert(feats.size >= 20)
    val (parts, amrSweep, txt) = Tables.fig9(feats, 0.7, Seq(0.5, 0.7, 0.9))
    println(s"=== ${s.name} (${feats.size} T-edges) ===\n" + txt)
    assert(parts.map(_._2.accuracy).forall(a => a >= 0.0 && a <= 1.0))
    assert(amrSweep.head._2.nnz >= amrSweep.last._2.nnz)
  }
}
