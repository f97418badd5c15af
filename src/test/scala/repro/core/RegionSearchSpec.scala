package repro.core

import repro.{Fixtures, TestNets}
import repro.TestNets.refRegionPath
import repro.roadnet.CostType

import org.scalacheck.rng.Seed
import org.scalacheck.{Gen, Prop, Test}
import org.scalatest.funsuite.AnyFunSuite

import scala.collection.mutable
import scala.util.Random

/** Tests of the router's region search on the shared search kernel:
  * tie-exact agreement with the library-queue search on random region
  * graphs, the connectivity check, and per-thread workspace safety next to
  * road searches.
  */
class RegionSearchSpec extends AnyFunSuite {

  /** A seeded region graph on 2–14 one-vertex regions with integer
    * centroids in 0..3, so equal-cost region paths are exact and common. A
    * third of the graphs have no edge between their lower and upper halves;
    * sparse draws split others. Rows come in the order in which the index's
    * `edges` map lists their keys, which is the neighbour order the
    * reference search reads, and each row's endpoints are in random order.
    */
  private def regionGraph(rnd: Random): RegionGraphIndex = {
    val n = 2 + rnd.nextInt(13)
    val split = rnd.nextInt(3) == 0
    val density = (1.0 + 2.0 * rnd.nextDouble()) / n
    val infos = (0 until n).map(r => RegionInfo(r, Array(r), rnd.nextInt(4).toDouble, rnd.nextInt(4).toDouble, Nil, Array.empty[Int]))
    val keys = for (a <- 0 until n; b <- a + 1 until n if !(split && a < n / 2 && b >= n / 2) && rnd.nextDouble() < density)
      yield (a, b)
    val rows = keys.map(k => k -> k).toMap.keys.toSeq.map { case (a, b) =>
      if (rnd.nextBoolean()) RegionEdgeData(a, b, isT = false, Nil, None) else RegionEdgeData(b, a, isT = false, Nil, None)
    }
    new RegionGraphIndex(infos, rows, Nil)
  }

  /** Is every region reachable from region 0 over `edges.keys`? */
  private def bfsConnected(index: RegionGraphIndex): Boolean = {
    val seen = mutable.Set(0)
    var frontier = List(0)
    while (frontier.nonEmpty)
      frontier = frontier.flatMap(r => index.edges.keys.collect { case (a, b) if a == r => b; case (a, b) if b == r => a }.filter(seen.add))
    index.nRegions == 0 || seen.size == index.nRegions
  }

  private val net = TestNets.line(2)

  test("regionPath equals the library-queue search and isConnected a BFS on random region graphs (scalacheck)") {
    var disconnected = 0; var unreachable = 0; var multiHop = 0
    val cases = Gen.choose(0L, Long.MaxValue).map(seed => regionGraph(new Random(seed)))
    val prop = Prop.forAllNoShrink(cases) { index =>
      val router = new L2RRouter(net, index)
      val ids = 0 until index.nRegions
      val paths = for (a <- ids; b <- ids) yield {
        val p = router.regionPath(a, b)
        if (p.isEmpty) unreachable += 1 else if (p.get.length > 2) multiHop += 1
        p == refRegionPath(index, a, b)
      }
      if (!index.isConnected) disconnected += 1
      paths.forall(identity) && index.isConnected == bfsConnected(index)
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(500).withInitialSeed(Seed(23L)), prop)
    assert(result.passed, result.status)
    assert(disconnected > 0 && unreachable > 0 && multiHop > 0,
      s"disconnected=$disconnected unreachable=$unreachable multiHop=$multiHop")
  }

  test("four threads sharing an index return the region paths of one thread") {
    val index = Fixtures.tiny.model.index
    val router = Fixtures.tiny.model.router(Fixtures.tiny.net)
    val pairs = for (a <- 0 until index.nRegions; b <- 0 until index.nRegions) yield (a, b)
    val expect = pairs.map { case (a, b) => router.regionPath(a, b) }
    val results = Array.ofDim[IndexedSeq[Option[Seq[Int]]]](4)
    val threads = (0 until 4).map { t =>
      new Thread(() => {
        // each thread starts at a different offset, so different searches overlap
        val order = pairs.indices.map(i => (i + pairs.length / 4 * t) % pairs.length)
        results(t) = order.map(i => i -> router.regionPath(pairs(i)._1, pairs(i)._2)).sortBy(_._1).map(_._2)
      })
    }
    threads.foreach(_.start()); threads.foreach(_.join())
    (0 until 4).foreach(t => assert(results(t) === expect, s"thread $t"))
  }

  test("a region search after an unreachable one, between road searches, equals it on a fresh index") {
    val grid = TestNets.smallGrid(14, 12)
    val rnd = new Random(31)
    var checked = 0
    for (seed <- 0 until 200) {
      val index = regionGraph(new Random(4000 + seed))
      val router = new L2RRouter(net, index)
      val ids = 0 until index.nRegions
      for (a <- ids; b <- ids if router.regionPath(a, b).isEmpty) {
        // the unreachable search exhausted a's component; a road search runs on the same thread
        val s = rnd.nextInt(grid.n); val d = rnd.nextInt(grid.n)
        assert(grid.dijkstra(s, d, CostType.TT).isDefined)
        val c = rnd.nextInt(index.nRegions)
        assert(router.regionPath(a, c) === new L2RRouter(net, regionGraph(new Random(4000 + seed))).regionPath(a, c), s"seed $seed $a to $c")
        assert(grid.dijkstra(s, d, CostType.DI) === TestNets.refSearch(grid, s, d, CostType.DI, -1))
        checked += 1
      }
    }
    assert(checked > 0)
  }
}
