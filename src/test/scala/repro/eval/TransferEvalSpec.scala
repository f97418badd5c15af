package repro.eval

import repro.core.PreferenceTransfer.REdgeFeat
import repro.roadnet.{CostType, Preference}
import repro.roadnet.CostType.{DI, FC, TT}
import org.scalatest.funsuite.AnyFunSuite

class TransferEvalSpec extends AnyFunSuite {

  test("prefJaccard: identical preferences score 1") {
    assert(TransferEval.prefJaccard(Preference(DI, Some(3)), Preference(DI, Some(3))) === 1.0)
    assert(TransferEval.prefJaccard(Preference(TT, None), Preference(TT, None)) === 1.0)
  }

  test("prefJaccard: same master, different slave scores 1/3") {
    assert(math.abs(TransferEval.prefJaccard(Preference(DI, Some(1)), Preference(DI, Some(2))) - 1.0 / 3) < 1e-12)
  }

  test("prefJaccard: disjoint preferences score 0") {
    assert(TransferEval.prefJaccard(Preference(DI, Some(1)), Preference(TT, Some(2))) === 0.0)
  }

  test("prefJaccard: master-only vs master+slave") {
    assert(math.abs(TransferEval.prefJaccard(Preference(FC, None), Preference(FC, Some(4))) - 0.5) < 1e-12)
  }

  /** The integer-set Jaccard over the flat (masterId, slaveRt) form, -1 for none. */
  private def intJaccard(predMaster: Int, predSlave: Int, gtMaster: Int, gtSlave: Int): Double = {
    def set(m: Int, s: Int): Set[Int] = (if (m >= 0) Set(m) else Set.empty[Int]) ++
      (if (s >= 0) Set(100 + s) else Set.empty[Int])
    val a = set(predMaster, predSlave); val b = set(gtMaster, gtSlave)
    val u = (a union b).size
    if (u == 0) 1.0 else (a intersect b).size.toDouble / u
  }

  test("prefJaccard equals the integer-set Jaccard on every pair of preferences") {
    for (p <- Preference.all; g <- Preference.all)
      assert(TransferEval.prefJaccard(p, g) === intJaccard(p.masterId, p.slaveRt, g.masterId, g.slaveRt), s"$p vs $g")
  }

  /** Clustered synthetic T-edge features: edges in the same cluster share
    * distance, functionality and preference, so transfer is learnable.
    */
  private def clusteredFeats(nClusters: Int, perCluster: Int): IndexedSeq[REdgeFeat] = {
    val rnd = new scala.util.Random(9)
    (0 until nClusters).flatMap { c =>
      val dis = 2.0 + c * 3.0
      val fp = Seq(11 + c, 33 + c)
      val label = Preference(CostType.byId(c % 3), if (c % 2 == 0) Some(1 + c % 6) else None)
      (0 until perCluster).map { k =>
        REdgeFeat(c * 100 + k, c * 100 + k + 50, dis * (1.0 + 0.02 * rnd.nextDouble()), fp, Some(label))
      }
    }.toIndexedSeq
  }

  test("holdout recovers clustered preferences with high accuracy") {
    val feats = clusteredFeats(4, 12)
    val r = TransferEval.holdout(feats, nPartsUsed = 4, amr = 0.7)
    assert(r.nHeldOut > 0)
    assert(r.accuracy > 0.8, s"expected high accuracy on clustered data, got ${r.accuracy}")
  }

  test("accuracy grows (weakly) with more labelled partitions") {
    val feats = clusteredFeats(4, 12)
    val accs = (1 to 4).map(k => TransferEval.holdout(feats, k, 0.7).accuracy)
    assert(accs.last >= accs.head - 0.05, s"4X should not be clearly worse than 1X: $accs")
  }

  test("a very high amr increases the null rate") {
    val feats = clusteredFeats(3, 8)
    // make clusters internally slightly dissimilar so amr≈1 disconnects them
    val spread = feats.zipWithIndex.map { case (f, i) => f.copy(dis = f.dis * (1.0 + 0.1 * (i % 5))) }
    val lo = TransferEval.holdout(spread, 4, amr = 0.5)
    val hi = TransferEval.holdout(spread, 4, amr = 0.999)
    assert(hi.nullRate >= lo.nullRate)
  }

  test("nnz shrinks as amr grows") {
    val feats = clusteredFeats(4, 10)
    val lo = TransferEval.holdout(feats, 4, amr = 0.5)
    val hi = TransferEval.holdout(feats, 4, amr = 0.9)
    assert(hi.nnz <= lo.nnz)
  }

  test("holdout rejects B-edge inputs") {
    val bad = IndexedSeq(REdgeFeat(1, 2, 1.0, Seq(11), None))
    intercept[IllegalArgumentException] {
      TransferEval.holdout(bad, 2, 0.7)
    }
  }
}
