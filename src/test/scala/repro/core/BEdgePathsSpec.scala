package repro.core

import repro.roadnet.{CostType, Preference}
import repro.{Fixtures, TestNets}
import org.scalatest.funsuite.AnyFunSuite

class BEdgePathsSpec extends AnyFunSuite {

  private val net = TestNets.smallGrid(12, 10)
  private val tcsPerSide = L2RPipeline.Params().tcsPerSide

  test("pickTcs prefers transfer centers nearest the other region") {
    val far = net.n - 1 // opposite corner of the grid
    val a = RegionInfo(0, Array(0, 1, 2), 0.0, 0.0, Seq(6), Array(0, 11))
    val b = RegionInfo(1, Array(far), net.vertices(far).x, net.vertices(far).y, Seq(6), Array(far))
    val picked = BEdgePaths.pickTcs(net, a, b, 1)
    assert(picked === Seq(11)) // 11 (end of row 0) is closer to the far corner than 0
  }

  test("pickTcs falls back to members when no transfer centers exist") {
    val a = RegionInfo(0, Array(0, 1), 0.0, 0.0, Seq(6), Array.empty)
    val b = RegionInfo(1, Array(50), net.vertices(50).x, net.vertices(50).y, Seq(6), Array(50))
    assert(BEdgePaths.pickTcs(net, a, b, 2).nonEmpty)
  }

  /** A region of the given vertices, all of them transfer centers. */
  private def region(id: Int, vs: Int*): RegionInfo =
    RegionGraph.regionInfo(net, Clustering.Region(id, vs.toSet), vs.toArray, 2)

  /** `materialise` of B-edges between `regions` under `prefs`. */
  private def bPaths(regions: Seq[RegionInfo], prefs: Map[(Int, Int), Option[Preference]]): Map[(Int, Int), Seq[Seq[Int]]] = {
    val edges = prefs.keys.toSeq.map { case (a, b) => RegionEdgeData(a, b, isT = false, Nil, None) }
    val idx = new RegionGraphIndex(regions, edges, Nil)
    BEdgePaths.materialise(net, idx, prefs, tcsPerSide).edges.map { case (k, e) => k -> e.paths.map(_.verts) }
  }

  test("materialise routes a B-edge with its preference's Algorithm 2 path") {
    val out = bPaths(Seq(region(0, 0), region(1, net.n - 1)), Map((0, 1) -> Some(Preference(CostType.DI, None))))
    assert(out((0, 1)) === Seq(net.dijkstra(0, net.n - 1, _.dist).get))
  }

  test("materialise gives a B-edge with a null preference fastest paths") {
    val out = bPaths(Seq(region(0, 0), region(1, net.n - 1)), Map((0, 1) -> None))
    assert(out((0, 1)) === Seq(net.dijkstra(0, net.n - 1, _.tt).get))
  }

  test("materialise skips transfer-center pairs with s == d") {
    val out = bPaths(Seq(region(0, 5), region(1, 5)), Map((0, 1) -> Some(Preference(CostType.TT, None))))
    assert(out((0, 1)).isEmpty)
  }

  /** Five regions near the grid's corners and centre, and a preference (or
    * none) for each of their ten pairs.
    */
  private lazy val (five, fivePrefs) = {
    val cols = 12
    val regions = Seq(region(0, 0, 1, cols + 1), region(1, 10, 11, cols + 10), region(2, 9 * cols, 9 * cols + 1, 8 * cols),
      region(3, net.n - 2, net.n - 1, 9 * cols - 1), region(4, 5 * cols + 5, 5 * cols + 6, 4 * cols + 6))
    val keys = for (a <- 0 until 5; b <- a + 1 until 5) yield (a, b)
    val candidates = None +: Preference.all.map(Some(_))
    val prefs = keys.zipWithIndex.map { case (k, i) => k -> candidates((3 * i) % candidates.size) }.toMap
      .updated((0, 2), Some(Preference(CostType.DI, None))).updated((0, 3), Some(Preference(CostType.DI, None)))
    (regions, prefs)
  }

  test("materialise equals per-pair prefDijkstra paths on B-edges that share transfer centers") {
    val (regions, prefs) = (five, fivePrefs)
    val keys = prefs.keys.toSeq.sorted
    val out = bPaths(regions, prefs)
    var fallbacks = 0
    val sources = keys.flatMap { k =>
      val a = regions(k._1); val b = regions(k._2)
      val pref = prefs(k).getOrElse(Preference(CostType.TT, None))
      val pairs = for (s <- BEdgePaths.pickTcs(net, a, b, 2); d <- BEdgePaths.pickTcs(net, b, a, 2) if s != d) yield (s, d)
      fallbacks += pairs.count { case (s, d) => TestNets.needsFallback(net, s, d, pref) }
      val expect = pairs.flatMap { case (s, d) => net.prefDijkstra(s, d, pref) }.filter(_.length >= 2).distinct
      assert(out(k) === expect, s"B-edge $k under $pref")
      pairs.map { case (s, _) => (s, pref) }.distinct
    }
    assert(sources.size > sources.distinct.size, "no (source, preference) serves two B-edges")
    assert(fallbacks > 0, "no pair needs the slave-rule fallback")
  }

  test("materialise keeps the edge rows in their order when there are more than four") {
    val rows = fivePrefs.keys.toSeq.sorted.reverse.map { case (a, b) => RegionEdgeData(a, b, isT = false, Nil, None) }
    val idx = new RegionGraphIndex(five, rows, Nil)
    assert(idx.edges.keys.toSeq !== rows.map(_.key), "the rows came in the edges map's order")
    val out = BEdgePaths.materialise(net, idx, fivePrefs, tcsPerSide)
    val inOrder = new RegionGraphIndex(five, rows.map(e => out.edges(e.key)), Nil)
    assert(Fixtures.serialise(out).sameElements(Fixtures.serialise(inOrder)), "materialise reordered the edge rows")
  }

  test("materialise attaches paths and preferences to every B-edge") {
    val regions = Seq(Clustering.Region(0, Set(0, 1)), Clustering.Region(1, Set(net.n - 1, net.n - 2)))
    val infos = regions.map(r => RegionGraph.regionInfo(net, r, r.members.toArray, 2))
    val idx = new RegionGraphIndex(infos, Seq(RegionEdgeData(0, 1, isT = false, Nil, None)), Nil)
    val pref = Some(Preference(CostType.DI, None))
    val out = BEdgePaths.materialise(net, idx, Map((0, 1) -> pref), tcsPerSide)
    val e = out.edges((0, 1))
    assert(e.paths.nonEmpty)
    assert(e.pref === pref)
    e.paths.foreach(p => assert(net.isValidPath(p.verts.toVector)))
    // path endpoints live in the two regions (transfer-center fallback)
    e.paths.foreach { p =>
      assert(out.regionOf(p.verts.head) >= 0 && out.regionOf(p.verts.last) >= 0)
    }
  }

  test("materialise leaves T-edges' paths alone but records their preference") {
    val regions = Seq(Clustering.Region(0, Set(0)), Clustering.Region(1, Set(9)))
    val infos = regions.map(r => RegionGraph.regionInfo(net, r, r.members.toArray, 2))
    val tPaths = Seq(PathRec(Seq(0, 1), 4))
    val idx = new RegionGraphIndex(infos, Seq(RegionEdgeData(0, 1, isT = true, tPaths, None)), Nil)
    val pref = Some(Preference(CostType.TT, Some(3)))
    val out = BEdgePaths.materialise(net, idx, Map((0, 1) -> pref), tcsPerSide)
    assert(out.edges((0, 1)).paths === tPaths)
    assert(out.edges((0, 1)).pref === pref)
  }
}
