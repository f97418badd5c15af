package repro.bench

import repro.eval.Tables
import org.scalatest.funsuite.AnyFunSuite

/** Table IV — region sizes (convex-hull area km², max diameter km).
  *
  * Paper (D1): (0,2] 3357 (78.6%)/9.5, (2,10] 539 (12.6%)/15.8,
  *             (10,100] 304 (7.12%)/29.9, >100 70 (1.63%)/304.1
  * Paper (D2): (0,2] 388 (72.1%)/2.3*, (2,5] 127 (23.6%), (5,10] 19 (3.53%), >10 4 (0.74%)
  * The headline: most regions are small (<2 km²); a few large ones exist
  * and are harmless because inner-region paths are kept.
  */
class TableIVBench extends AnyFunSuite {

  test("Table IV: D1-lite regions are mostly small with a thin large tail") {
    val s = BenchScenarios.d1
    val (rows, txt) = Tables.tableIV(s.net, s.model.regions, Seq(0.0, 2, 10, 100), s.name)
    println(txt)
    println("Paper D1: 3357 (78.6%)   539 (12.6%)   304 (7.12%)   70 (1.63%)")
    assert(rows.map(_.n).sum === s.model.regions.size)
    assert(rows.head.pct > 40.0, s"smallest bucket should dominate: ${rows.map(_.pct)}")
    assert(rows.last.pct < rows.head.pct, "very large regions must be rare")
  }

  test("Table IV: D2-lite regions are mostly below 2 km²") {
    val s = BenchScenarios.d2
    val (rows, txt) = Tables.tableIV(s.net, s.model.regions, Seq(0.0, 2, 5, 10), s.name)
    println(txt)
    println("Paper D2: 388 (72.1%)   127 (23.6%)   19 (3.53%)   4 (0.74%)")
    assert(rows.map(_.n).sum === s.model.regions.size)
    assert(rows.head.pct > 40.0, s"smallest bucket should dominate: ${rows.map(_.pct)}")
    assert(rows.takeRight(2).map(_.pct).sum < rows.take(2).map(_.pct).sum)
  }

  test("Table IV: very large regions are rare (backbone highways only, as in the paper)") {
    // The paper's D1 has a few huge regions (max diameter 304 km) that
    // "represent backbone highways" and are harmless thanks to
    // inner-region paths; what must NOT happen is large regions being
    // common.
    BenchScenarios.all.foreach { s =>
      val extentX = s.net.vertices.map(_.x).max
      val extentY = s.net.vertices.map(_.y).max
      val cityArea = extentX * extentY
      val big = s.model.regions.count { r =>
        val pts = r.members.toSeq.map { v => val vv = s.net.vertices(v); (vv.x, vv.y) }
        repro.util.Geo.polygonArea(repro.util.Geo.convexHull(pts)) > 0.25 * cityArea
      }
      assert(big <= math.max(2, s.model.regions.size / 50),
        s"${s.name}: $big of ${s.model.regions.size} regions exceed a quarter of the city")
    }
  }
}
