package repro.baselines

import repro.traj.{TrajectoryGen, Trip}
import repro.TestNets
import org.scalatest.funsuite.AnyFunSuite

class BaselinesSpec extends AnyFunSuite {

  private val grid = TestNets.smallGrid(16, 12)
  private val cfg = TrajectoryGen.Config(nTrips = 250, nDrivers = 8, nZones = 4,
    zoneRadiusKm = 0.8, seed = 77L)
  private lazy val trips = TrajectoryGen.generateLocal(grid, cfg)

  test("Shortest minimises distance") {
    val r = new Baselines.Shortest(grid)
    val p = r.route(0, 0, grid.n - 1)
    val expect = TestNets.bellmanFordCost(grid, 0, grid.n - 1, _.dist)
    assert(math.abs(grid.pathCost(p, _.dist) - expect) < 1e-9)
  }

  test("Fastest minimises travel time") {
    val r = new Baselines.Fastest(grid)
    val p = r.route(0, 0, grid.n - 1)
    val expect = TestNets.bellmanFordCost(grid, 0, grid.n - 1, _.tt)
    assert(math.abs(grid.pathCost(p, _.tt) - expect) < 1e-9)
  }

  test("Shortest path is never longer than Fastest path") {
    val s = new Baselines.Shortest(grid); val f = new Baselines.Fastest(grid)
    val rnd = new scala.util.Random(1)
    for (_ <- 0 until 10) {
      val a = rnd.nextInt(grid.n); val b = rnd.nextInt(grid.n)
      assert(grid.pathLength(s.route(0, a, b)) <= grid.pathLength(f.route(0, a, b)) + 1e-9)
    }
  }

  test("SimGoogle is biased toward major roads") {
    val g = new Baselines.SimGoogle(grid)
    val f = new Baselines.Fastest(grid)
    def motorwayLen(p: Vector[Int]): Double = p.sliding(2).collect {
      case Seq(a, b) if grid.edgeBetween(a, b).exists(_.rt <= 2) => grid.lenBetween(a, b)
    }.sum
    val rnd = new scala.util.Random(2)
    var ok = 0; var total = 0
    for (_ <- 0 until 15) {
      val a = rnd.nextInt(grid.n); val b = rnd.nextInt(grid.n)
      if (a != b) {
        total += 1
        if (motorwayLen(g.route(0, a, b)) >= motorwayLen(f.route(0, a, b)) - 1e-9) ok += 1
      }
    }
    assert(ok >= total - 1, "Google-sim should use at least as much major road as Fastest")
  }

  test("Dom.fit produces normalised per-driver weights") {
    val m = Dom.fit(grid, trips)
    m.weights.values.foreach { w =>
      assert(w.length === 3)
      assert(math.abs(w.sum - 1.0) < 1e-9)
      assert(w.forall(_ >= 0))
    }
    assert(math.abs(m.default.sum - 1.0) < 1e-9)
  }

  test("Dom returns valid paths between arbitrary pairs") {
    val m = Dom.fit(grid, trips)
    val r = new Dom.DomRouter(grid, m)
    val rnd = new scala.util.Random(3)
    for (_ <- 0 until 5) {
      val a = rnd.nextInt(grid.n); val b = rnd.nextInt(grid.n)
      val p = r.route(0, a, b)
      assert(p.head === a && p.last === b)
      assert(grid.isValidPath(p))
    }
  }

  test("Dom with pure-TT weights behaves like Fastest") {
    val m = Dom.Model(Map(0 -> Array(0.0, 1.0, 0.0)), Array(0.0, 1.0, 0.0))
    val r = new Dom.DomRouter(grid, m)
    val f = new Baselines.Fastest(grid)
    val p = r.route(0, 0, grid.n - 1)
    // ε-dominance may keep a slightly suboptimal path; costs must be close
    assert(grid.pathCost(p, _.tt) <= grid.pathCost(f.route(0, 0, grid.n - 1), _.tt) * 1.1 + 1e-9)
  }

  test("Dom is substantially slower than Fastest (skyline search)") {
    val m = Dom.fit(grid, trips)
    val dom = new Dom.DomRouter(grid, m)
    val fast = new Baselines.Fastest(grid)
    def time(f: => Unit): Long = { val t0 = System.nanoTime(); f; System.nanoTime() - t0 }
    // warm-up
    dom.route(0, 0, grid.n - 1); fast.route(0, 0, grid.n - 1)
    val td = time { for (i <- 0 until 5) dom.route(0, i, grid.n - 1 - i) }
    val tf = time { for (i <- 0 until 5) fast.route(0, i, grid.n - 1 - i) }
    assert(td > tf, s"Dom ($td ns) should be slower than Fastest ($tf ns)")
  }

  test("TRIP ratios are clamped and default to 1") {
    val m = TripRouter.fit(grid, trips)
    m.ratio.values.foreach(r => assert(r.forall(v => v >= 0.6 && v <= 1.6)))
    assert(m.default.forall(_ === 1.0))
  }

  test("TRIP with default ratios equals Fastest") {
    val m = TripRouter.Model(Map.empty, Array.fill(7)(1.0))
    val r = new TripRouter.Trip_(grid, m)
    val f = new Baselines.Fastest(grid)
    val p = r.route(0, 3, grid.n - 5)
    assert(math.abs(grid.pathCost(p, _.tt) - grid.pathCost(f.route(0, 3, grid.n - 5), _.tt)) < 1e-9)
  }

  test("TRIP personalisation biases toward the driver's habitual road types") {
    // a driver who always used motorways gets motorway-friendlier weights
    val motorTrips = (0 until 10).map { i =>
      Trip(i, 0, grid.dijkstra(i, grid.n - 1 - i, _.tt).get, 1.0)
    }
    val resTrips = (10 until 20).map { i =>
      Trip(i, 1, grid.dijkstra(i - 10, grid.n - 1 - i + 10, _.dist).get, 1.0)
    }
    val m = TripRouter.fit(grid, motorTrips ++ resTrips)
    val r0 = m.ratio(0); val r1 = m.ratio(1)
    // driver 0's ratio on type 1..2 should not be below driver 1's
    assert(r0(1) + r0(2) >= r1(1) + r1(2) - 1e-9)
  }

  test("all routers give s→d paths even for adjacent vertices") {
    val m = Dom.fit(grid, trips.take(20))
    val routers: Seq[Router] = Seq(new Baselines.Shortest(grid), new Baselines.Fastest(grid),
      new Baselines.SimGoogle(grid), new Dom.DomRouter(grid, m),
      new TripRouter.Trip_(grid, TripRouter.fit(grid, trips.take(20))))
    routers.foreach { r =>
      val p = r.route(0, 0, 1)
      assert(p.head === 0 && p.last === 1)
    }
  }
}
