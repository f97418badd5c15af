package repro.eval

import repro.TestNets
import org.scalatest.funsuite.AnyFunSuite

class PathSimSpec extends AnyFunSuite {

  private val line = TestNets.line(6) // 0-1-2-3-4-5, unit lengths

  test("edgeSet canonicalises direction") {
    assert(PathSim.edgeSet(Seq(0, 1, 2)) === Set((0, 1), (1, 2)))
    assert(PathSim.edgeSet(Seq(2, 1, 0)) === Set((0, 1), (1, 2)))
  }

  test("edgeSet of a single vertex is empty") {
    assert(PathSim.edgeSet(Seq(3)) === Set.empty)
  }

  test("identical paths have similarity 1 under both functions") {
    val p = Seq(0, 1, 2, 3)
    assert(PathSim.sim1(line, p, p) === 1.0)
    assert(PathSim.sim2(line, p, p) === 1.0)
  }

  test("disjoint paths have similarity 0") {
    assert(PathSim.sim1(line, Seq(0, 1), Seq(3, 4)) === 0.0)
    assert(PathSim.sim2(line, Seq(0, 1), Seq(3, 4)) === 0.0)
  }

  test("Eq.1: sub-path fraction of ground truth") {
    // gt has 4 edges, candidate shares 2 of them
    assert(math.abs(PathSim.sim1(line, Seq(0, 1, 2, 3, 4), Seq(0, 1, 2)) - 0.5) < 1e-9)
  }

  test("Eq.1 is not symmetric but Eq.4 is") {
    val a = Seq(0, 1, 2, 3, 4); val b = Seq(0, 1, 2)
    assert(PathSim.sim1(line, a, b) !== PathSim.sim1(line, b, a))
    assert(PathSim.sim2(line, a, b) === PathSim.sim2(line, b, a))
  }

  test("Eq.4 equals shared/union") {
    // gt 4 edges, p 2 edges sharing 2 → union 4 → 0.5
    assert(math.abs(PathSim.sim2(line, Seq(0, 1, 2, 3, 4), Seq(0, 1, 2)) - 0.5) < 1e-9)
    // retracing an already-shared edge adds nothing to the union
    assert(math.abs(PathSim.sim2(line, Seq(0, 1, 2, 3, 4), Seq(0, 1, 2).reverse ++ Seq(1)) - 0.5) < 1e-9)
  }

  test("Eq.4 ≤ Eq.1 always") {
    val grid = TestNets.smallGrid()
    val rnd = new scala.util.Random(5)
    for (_ <- 0 until 10) {
      val s = rnd.nextInt(grid.n); val d = rnd.nextInt(grid.n)
      val gt = grid.dijkstra(s, d, _.dist).get
      val p = grid.dijkstra(s, d, _.tt).get
      assert(PathSim.sim2(grid, gt, p) <= PathSim.sim1(grid, gt, p) + 1e-12)
    }
  }

  test("length weighting: longer shared edges count more") {
    val net = TestNets.custom(Seq((0, 0), (1, 0), (5, 0)),
      Seq((0, 1, 1.0, 6), (1, 2, 4.0, 6)))
    // gt both edges, p only the long one → sim1 = 4/5
    assert(math.abs(PathSim.sim1(net, Seq(0, 1, 2), Seq(1, 2)) - 0.8) < 1e-9)
  }

  test("direction-insensitive sharing (bidirectional network)") {
    assert(PathSim.sim1(line, Seq(0, 1, 2), Seq(2, 1, 0)) === 1.0)
  }

  test("similarities are in [0,1]") {
    val grid = TestNets.smallGrid()
    val rnd = new scala.util.Random(6)
    for (_ <- 0 until 10) {
      val s = rnd.nextInt(grid.n); val d = rnd.nextInt(grid.n)
      val gt = grid.dijkstra(s, d, _.fc).get
      val p = grid.dijkstra(s, d, _.tt).get
      val v1 = PathSim.sim1(grid, gt, p); val v2 = PathSim.sim2(grid, gt, p)
      assert(v1 >= 0.0 && v1 <= 1.0 + 1e-12)
      assert(v2 >= 0.0 && v2 <= 1.0 + 1e-12)
    }
  }
}
