package repro.core

import repro.roadnet.{CostType, Preference}
import repro.TestNets
import org.scalatest.funsuite.AnyFunSuite

class L2RRoutingSpec extends AnyFunSuite {

  // Line 0..9 with regions A={0,1,2}, B={5,6}, C={8,9}
  private val net = TestNets.line(10)
  private val regions = Seq(
    Clustering.Region(0, Set(0, 1, 2)),
    Clustering.Region(1, Set(5, 6)),
    Clustering.Region(2, Set(8, 9)))

  private def mkIndex(edges: Seq[RegionEdgeData], inner: Seq[Seq[PathRec]] = Nil): RegionGraphIndex =
    new RegionGraphIndex(regions.map(r => RegionGraph.regionInfo(net, r, r.members.toArray.sorted, 2)), edges, inner)

  private val idx = mkIndex(
    Seq(
      RegionEdgeData(0, 1, isT = true, Seq(PathRec(Seq(2, 3, 4, 5), 3)), None),
      RegionEdgeData(1, 2, isT = true, Seq(PathRec(Seq(6, 7, 8), 2)), None)),
    Seq(Seq(PathRec(Seq(0, 1, 2), 5))))

  private val router = new L2RRouter(net, idx)

  test("same-region routing follows the most-traversed inner path") {
    assert(router.route(0, 2) === Vector(0, 1, 2))
    assert(router.innerRoute(0, 0, 1) === Vector(0, 1))
  }

  test("same-region routing falls back to fastest when no inner path matches") {
    assert(router.innerRoute(0, 2, 0) === Vector(2, 1, 0)) // inner path is 0→2 only
  }

  test("region path prefers the direct region edge") {
    assert(router.regionPath(0, 1).get === Seq(0, 1))
  }

  test("region path chains edges when no direct edge exists") {
    assert(router.regionPath(0, 2).get === Seq(0, 1, 2))
  }

  test("region path returns None when regions are unreachable") {
    val lonely = mkIndex(Seq(RegionEdgeData(0, 1, isT = true, Seq(PathRec(Seq(2, 3, 4, 5), 1)), None)))
    val r = new L2RRouter(net, lonely)
    assert(r.regionPath(0, 2).isEmpty)
  }

  test("an id that is no region's gives no region path and the fastest inner route") {
    for (bad <- Seq(-1, regions.size); good <- regions.indices) {
      assert(router.regionPath(bad, good).isEmpty && router.regionPath(good, bad).isEmpty, s"$bad, $good")
      assert(router.regionPath(bad, bad).isEmpty)
    }
    for (bad <- Seq(-1, regions.size)) assert(router.innerRoute(bad, 0, 2) === net.dijkstra(0, 2, CostType.TT).get)
    assert(router.innerRoute(0, 0, 2) === Vector(0, 1, 2))
  }

  test("cross-region routing stitches T-edge paths") {
    val p = router.route(0, 9)
    assert(p.head === 0 && p.last === 9)
    assert(net.isValidPath(p))
    // must reuse the stored paths 2-3-4-5 and 6-7-8
    assert(p.containsSlice(Vector(2, 3, 4, 5)))
    assert(p.containsSlice(Vector(6, 7, 8)))
  }

  test("routing from outside any region reaches the nearest region first") {
    // vertex 3 is outside; nearest regions: A (via 2) or B (via 5)
    val p = router.route(3, 9)
    assert(p.head === 3 && p.last === 9)
    assert(net.isValidPath(p))
  }

  test("routing to outside any region appends a fastest tail") {
    val p = router.route(0, 7)
    assert(p.head === 0 && p.last === 7)
    assert(net.isValidPath(p))
  }

  test("degenerate request s == d") {
    assert(router.route(4, 4) === Vector(4))
  }

  test("B-edge paths participate in routing like T-edge paths") {
    val withB = mkIndex(Seq(
      RegionEdgeData(0, 1, isT = true, Seq(PathRec(Seq(2, 3, 4, 5), 3)), None),
      RegionEdgeData(1, 2, isT = false, Seq(PathRec(Seq(6, 7, 8), 0)),
        Some(Preference(CostType.TT, None)))))
    val r = new L2RRouter(net, withB)
    val p = r.route(0, 9)
    assert(p.containsSlice(Vector(6, 7, 8)))
  }

  test("falls back to fastest when the region graph cannot help") {
    val empty = new RegionGraphIndex(Nil, Nil, Nil)
    val r = new L2RRouter(net, empty)
    assert(r.route(0, 9) === net.dijkstra(0, 9, _.tt).get)
  }

  test("a region edge whose only preference is ⟨TT, none⟩ routes the fastest path") {
    val g = TestNets.smallGrid(12, 10)
    val (s, d) = (3, g.n - 8)
    val fp = g.dijkstra(s, d, CostType.TT).get
    // Case 1: s and d in the two regions; Case 2: s outside, the fastest path's second vertex in a region
    for ((a, b) <- Seq((Set(s), Set(d)), (Set(fp(1)), Set(d)))) {
      val rs = Seq(Clustering.Region(0, a), Clustering.Region(1, b))
      val infos = rs.map(r => RegionGraph.regionInfo(g, r, r.members.toArray, 2))
      def routed(pref: Preference): Vector[Int] = new L2RRouter(g, new RegionGraphIndex(infos,
        Seq(RegionEdgeData(0, 1, isT = false, Nil, Some(pref))), Nil)).route(s, d)
      assert(routed(Preference(CostType.TT, None)) === fp)
      assert(routed(Preference(CostType.DI, None)) === g.dijkstra(s, d, CostType.DI).get)
    }
  }
}
