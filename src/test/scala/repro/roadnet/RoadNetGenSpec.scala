package repro.roadnet

import repro.TestNets
import org.scalatest.funsuite.AnyFunSuite

class RoadNetGenSpec extends AnyFunSuite {

  private val cfg = RoadNetGen.Config(cols = 20, rows = 15, spacingKm = 0.5, seed = 9L)
  private val net = RoadNetGen.grid(cfg)

  test("vertex count is rows×cols") {
    assert(net.n === 300)
  }

  test("edge count matches the grid (both directions)") {
    val expected = 2 * ((cfg.cols - 1) * cfg.rows + (cfg.rows - 1) * cfg.cols)
    assert(net.edges.length === expected)
  }

  test("generation is deterministic in the config") {
    val net2 = RoadNetGen.grid(cfg)
    assert(net2.edges.toSeq === net.edges.toSeq)
    assert(net2.vertices.toSeq === net.vertices.toSeq)
  }

  test("different seeds give different jitter") {
    val net2 = RoadNetGen.grid(cfg.copy(seed = 10L))
    assert(net2.edges.toSeq !== net.edges.toSeq)
  }

  test("every edge has a reverse twin with identical weights") {
    net.edges.take(100).foreach { e =>
      val rev = net.edgeBetween(e.dst, e.src)
      assert(rev.isDefined)
      assert(rev.get.dist === e.dist && rev.get.tt === e.tt && rev.get.fc === e.fc && rev.get.rt === e.rt)
    }
  }

  test("the network is connected") {
    assert(TestNets.reachableFrom(net, 0).size === net.n)
  }

  test("all road types are in 1..6 and all six appear") {
    val rts = net.edges.map(_.rt).toSet
    assert(rts.subsetOf((1 to 6).toSet))
    assert((1 to 4).forall(rts.contains), "arterial hierarchy types must appear")
  }

  test("row 0 is a motorway, row 8 a trunk, row 4 a primary, row 2 a secondary") {
    def rtOfHorizontal(r: Int): Int = {
      val u = r * cfg.cols; val v = u + 1
      net.edgeBetween(u, v).get.rt
    }
    assert(rtOfHorizontal(0) === 1)
    assert(rtOfHorizontal(8) === 2)
    assert(rtOfHorizontal(4) === 3)
    assert(rtOfHorizontal(2) === 4)
  }

  test("weights are positive") {
    assert(net.edges.forall(e => e.dist > 0 && e.tt > 0 && e.fc > 0))
  }

  test("travel time is consistent with the speed table") {
    net.edges.take(100).foreach { e =>
      assert(math.abs(e.tt - e.dist / RoadNetGen.speedKmh(e.rt) * 60.0) < 1e-9)
    }
  }

  test("fuel model is U-shaped with optimum at 60 km/h") {
    assert(RoadNetGen.fcPerKm(60) < RoadNetGen.fcPerKm(30))
    assert(RoadNetGen.fcPerKm(60) < RoadNetGen.fcPerKm(110))
    assert(RoadNetGen.fcPerKm(50) === RoadNetGen.fcPerKm(70))
  }

  test("the three cost optima genuinely differ on the grid") {
    // long diagonal trip: TT-optimal uses motorways, DI-optimal does not
    val s = 0; val d = net.n - 1
    val di = net.dijkstra(s, d, _.dist).get
    val tt = net.dijkstra(s, d, _.tt).get
    val fc = net.dijkstra(s, d, _.fc).get
    assert(di !== tt)
    assert(net.pathCost(di, _.dist) <= net.pathCost(tt, _.dist) + 1e-9)
    assert(net.pathCost(tt, _.tt) <= net.pathCost(di, _.tt) + 1e-9)
    assert(net.pathCost(fc, _.fc) <= net.pathCost(tt, _.fc) + 1e-9)
  }

  test("edge lengths carry bounded jitter around the spacing") {
    val horiz = net.edges.filter(e => math.abs(e.src - e.dst) == 1)
    horiz.take(200).foreach { e =>
      assert(e.dist > 0.5 * cfg.spacingKm && e.dist < 2.0 * cfg.spacingKm)
    }
  }

  test("splitmix64 unit() is in [0,1)") {
    (0 until 1000).foreach { i =>
      val u = RoadNetGen.unit(RoadNetGen.mix(i))
      assert(u >= 0.0 && u < 1.0)
    }
  }

  test("D1/D2 presets build connected networks") {
    val d2 = RoadNetGen.grid(RoadNetGen.D2.copy(cols = 24, rows = 18))
    assert(TestNets.reachableFrom(d2, 0).size === d2.n)
  }
}
