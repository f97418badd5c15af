package repro.roadnet

import repro.TestNets

import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite

/** Tests of the paper's Algorithm 2 (preference-aware Dijkstra). */
class PrefDijkstraSpec extends AnyFunSuite {

  // Diamond: top route is motorway (fast, long), bottom is residential
  // (short, slow). 0 → 1 → 3 (top, rt 1), 0 → 2 → 3 (bottom, rt 6).
  private val diamond = TestNets.custom(
    Seq((0, 0), (1, 1), (1, -1), (2, 0)),
    Seq((0, 1, 2.0, 1), (1, 3, 2.0, 1), (0, 2, 1.0, 6), (2, 3, 1.0, 6)))

  test("no slave feature reduces to plain Dijkstra on the master cost") {
    val p = diamond.prefDijkstra(0, 3, Preference(CostType.DI, None))
    assert(p === diamond.dijkstra(0, 3, _.dist))
    assert(p.get === Vector(0, 2, 3))
  }

  test("master=TT picks the motorway route") {
    assert(diamond.prefDijkstra(0, 3, Preference(CostType.TT, None)).get === Vector(0, 1, 3))
  }

  test("master=DI picks the short residential route") {
    assert(diamond.prefDijkstra(0, 3, Preference(CostType.DI, None)).get === Vector(0, 2, 3))
  }

  test("slave preference overrides the master optimum") {
    // minimise distance but prefer motorway edges → forced onto the top route
    val p = diamond.prefDijkstra(0, 3, Preference(CostType.DI, Some(1))).get
    assert(p === Vector(0, 1, 3))
  }

  test("slave preference for residential keeps the bottom route") {
    val p = diamond.prefDijkstra(0, 3, Preference(CostType.TT, Some(6))).get
    assert(p === Vector(0, 2, 3))
  }

  test("vertices with no satisfying edge explore all edges (noneSat rule)") {
    // line of mixed types: 0-(rt6)-1-(rt3)-2 ; prefer rt 3: vertex 0 has no
    // rt-3 edge so the rt-6 edge must still be usable.
    val net = TestNets.custom(Seq((0, 0), (1, 0), (2, 0)),
      Seq((0, 1, 1.0, 6), (1, 2, 1.0, 3)))
    val p = net.prefDijkstra(0, 2, Preference(CostType.DI, Some(3)))
    assert(p.get === Vector(0, 1, 2))
  }

  test("falls back to plain Dijkstra when the slave restriction disconnects d") {
    // 0 -(rt1)- 1 and 0 -(rt6)- 2 : preferring rt1 at vertex 0 hides the
    // only edge to 2; the fallback must still find 2.
    val net = TestNets.custom(Seq((0, 0), (1, 0), (0, 1)),
      Seq((0, 1, 1.0, 1), (0, 2, 1.0, 6)))
    val p = net.prefDijkstra(0, 2, Preference(CostType.DI, Some(1)))
    assert(p === net.dijkstra(0, 2, _.dist))
  }

  test("returned paths are always valid") {
    val grid = TestNets.smallGrid()
    val rnd = new scala.util.Random(7)
    for (_ <- 0 until 10) {
      val s = rnd.nextInt(grid.n); val d = rnd.nextInt(grid.n)
      val pref = Preference(CostType.all(rnd.nextInt(3)),
        if (rnd.nextBoolean()) Some(1 + rnd.nextInt(6)) else None)
      val p = grid.prefDijkstra(s, d, pref)
      assert(p.isDefined)
      assert(p.get.head === s && p.get.last === d)
      assert(grid.isValidPath(p.get))
    }
  }

  test("slave-preferred paths use at least as much preferred road type") {
    val grid = TestNets.smallGrid(16, 16)
    val rnd = new scala.util.Random(11)
    var checked = 0
    for (_ <- 0 until 20) {
      val s = rnd.nextInt(grid.n); val d = rnd.nextInt(grid.n)
      val plain = grid.dijkstra(s, d, _.dist).get
      val pref = grid.prefDijkstra(s, d, Preference(CostType.DI, Some(3))).get
      def rtLen(p: Vector[Int]) = p.sliding(2).collect {
        case Seq(a, b) if grid.edgeBetween(a, b).exists(_.rt == 3) => grid.lenBetween(a, b)
      }.sum
      if (rtLen(pref) >= rtLen(plain) - 1e-9) checked += 1
    }
    assert(checked >= 18, "preference-aware routing should not reduce preferred-type usage in ≥90% of cases")
  }

  // ------------------------------------------- random small networks

  /** A seeded one-way network on 2–8 vertices. Each ordered pair gets an
    * edge independently, so many edges are one-way and sparse draws split
    * into components. Road types are 1–3, so a slave of 4–6 never matches
    * and many vertices lack an out-edge of a given type. Lengths are
    * multiples of 0.1 km, so equal-cost paths are common.
    */
  private def randomNet(rnd: Random): RoadNetwork = {
    val n = 2 + rnd.nextInt(7)
    val density = 0.15 + 0.35 * rnd.nextDouble()
    val vertices = Array.tabulate(n)(i => Vertex(i, 3 * rnd.nextDouble(), 3 * rnd.nextDouble()))
    val edges = for (u <- 0 until n; v <- 0 until n if u != v && rnd.nextDouble() < density) yield {
      val len = 0.1 * (1 + rnd.nextInt(20))
      val rt = 1 + rnd.nextInt(3)
      val speed = RoadNetGen.speedKmh(rt)
      Edge(u, v, len, len / speed * 60.0, len * RoadNetGen.fcPerKm(speed), rt)
    }
    new RoadNetwork(vertices, edges.toArray)
  }

  /** Every simple path s → d, by depth-first enumeration. */
  private def simplePaths(net: RoadNetwork, s: Int, d: Int): Seq[Vector[Int]] = {
    def extend(p: Vector[Int]): Seq[Vector[Int]] =
      if (p.last == d) Seq(p)
      else net.adj(p.last).toSeq.map(net.edges(_).dst).filterNot(p.contains).flatMap(v => extend(p :+ v))
    extend(Vector(s))
  }

  /** Algorithm 2's edge rule: at a vertex with an out-edge of road type
    * `rt`, only such edges may be taken.
    */
  private def admissible(net: RoadNetwork, p: Vector[Int], rt: Int): Boolean =
    p.sliding(2).forall {
      case Seq(u, v) => !net.adj(u).exists(net.edges(_).rt == rt) || net.edgeBetween(u, v).exists(_.rt == rt)
      case _         => true
    }

  private def assertSimpleRoad(net: RoadNetwork, p: Vector[Int], s: Int, d: Int): Unit = {
    assert(p.head === s && p.last === d)
    assert(net.isValidPath(p), s"invalid path $p")
    assert(p.distinct.length === p.length, s"path $p revisits a vertex")
  }

  private val prefs = for (c <- CostType.all; sl <- None +: (1 to 6).map(Some(_))) yield Preference(c, sl)

  test("dijkstra and prefDijkstra match brute-force oracles on random one-way networks") {
    var fallbacks = 0; var unreachable = 0
    for (seed <- 0 until 60) {
      val net = randomNet(new Random(1000 + seed))
      for (s <- 0 until net.n; d <- 0 until net.n) {
        CostType.all.foreach { c =>
          val expect = TestNets.bellmanFordCost(net, s, d, c.of)
          net.dijkstra(s, d, c.of) match {
            case Some(p) =>
              assertSimpleRoad(net, p, s, d)
              assert(math.abs(net.pathCost(p, c.of) - expect) < 1e-9, s"seed $seed $s→$d ${c.name}")
            case None => assert(expect.isPosInfinity, s"seed $seed $s→$d ${c.name}")
          }
        }
        val all = simplePaths(net, s, d)
        if (all.isEmpty) unreachable += 1
        prefs.foreach { pref =>
          val cost = (p: Vector[Int]) => net.pathCost(p, pref.master.of)
          val allowed = pref.slave.fold(all)(rt => all.filter(admissible(net, _, rt)))
          if (allowed.isEmpty && all.nonEmpty) fallbacks += 1
          val expect = (if (allowed.nonEmpty) allowed else all).map(cost).minOption
          val got = net.prefDijkstra(s, d, pref)
          assert(got.isDefined === expect.isDefined, s"seed $seed $s→$d $pref")
          for (p <- got; e <- expect) {
            assertSimpleRoad(net, p, s, d)
            assert(math.abs(cost(p) - e) < 1e-9, s"seed $seed $s→$d $pref: $p costs ${cost(p)}, optimum $e")
            for (rt <- pref.slave if allowed.nonEmpty) assert(admissible(net, p, rt), s"seed $seed $s→$d $pref: $p")
          }
        }
      }
    }
    assert(fallbacks > 0 && unreachable > 0, s"fallbacks=$fallbacks unreachable=$unreachable")
  }
}
