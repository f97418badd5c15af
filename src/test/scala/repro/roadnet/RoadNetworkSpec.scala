package repro.roadnet

import repro.TestNets
import org.scalatest.funsuite.AnyFunSuite

class RoadNetworkSpec extends AnyFunSuite {

  private val line = TestNets.line(5)
  private val grid = TestNets.smallGrid()

  test("adjacency lists cover every edge exactly once") {
    assert(grid.adj.map(_.length).sum === grid.edges.length)
  }

  test("edgeBetween finds forward edges") {
    assert(line.edgeBetween(0, 1).isDefined)
    assert(line.edgeBetween(1, 0).isDefined)
    assert(line.edgeBetween(0, 2).isEmpty)
  }

  test("edgeBetween takes the last parallel edge and is directed; lenBetween falls back to the reverse edge") {
    // two parallel 0 → 1 edges of different lengths, and the one-way 1 → 2
    val vs = Array(Vertex(0, 0, 0), Vertex(1, 1, 0), Vertex(2, 2, 0))
    val es = Array(Edge(0, 1, 1.0, 1, 1, 6), Edge(0, 1, 2.0, 1, 1, 6), Edge(1, 2, 3.0, 1, 1, 6))
    val net = new RoadNetwork(vs, es)
    assert(net.edgeBetween(0, 1) === Some(es(1)))
    assert(net.edgeBetween(1, 0).isEmpty && net.edgeBetween(2, 1).isEmpty)
    assert(net.lenBetween(0, 1) === 2.0 && net.lenBetween(1, 0) === 2.0)
    assert(net.lenBetween(1, 2) === 3.0 && net.lenBetween(2, 1) === 3.0)
    assert(net.edgeBetween(0, 2).isEmpty && net.lenBetween(0, 2) === 0.0)
    // vertex ids outside 0..n-1
    for ((u, v) <- Seq((-1, 0), (3, 0), (0, 3), (Int.MinValue, 1), (1, Int.MaxValue)))
      assert(net.edgeBetween(u, v).isEmpty, s"($u, $v)")
    assert(net.lenBetween(-1, 0) === 0.0 && net.lenBetween(0, 3) === 0.0)
    assert(!net.isValidPath(Vector(-1, 0, 1)) && !net.isValidPath(Vector(0, 1, 2, 3)))
    assert(net.isValidPath(Vector(0, 1, 2)))
  }

  test("lenBetween is symmetric") {
    assert(grid.edges.take(50).forall(e => grid.lenBetween(e.src, e.dst) === grid.lenBetween(e.dst, e.src)))
  }

  test("pathCost sums edge costs") {
    assert(math.abs(line.pathCost(Vector(0, 1, 2, 3), _.dist) - 3.0) < 1e-9)
  }

  test("pathCost of an invalid hop is +inf") {
    assert(line.pathCost(Vector(0, 2), _.dist).isPosInfinity)
  }

  test("isValidPath accepts real paths and rejects teleports") {
    assert(line.isValidPath(Vector(0, 1, 2)))
    assert(!line.isValidPath(Vector(0, 2)))
    assert(!line.isValidPath(Vector.empty))
  }

  test("dijkstra on a line returns the line") {
    assert(line.dijkstra(0, 4, _.dist).get === Vector(0, 1, 2, 3, 4))
  }

  test("dijkstra src==dst returns the trivial path") {
    assert(line.dijkstra(2, 2, _.dist).get === Vector(2))
  }

  test("dijkstra returns None when disconnected") {
    val net = TestNets.custom(Seq((0, 0), (1, 0), (5, 5), (6, 5)),
      Seq((0, 1, 1.0, 6), (2, 3, 1.0, 6)))
    assert(net.dijkstra(0, 3, _.dist).isEmpty)
  }

  // Dijkstra vs Bellman-Ford oracle on the grid, for each cost type
  for (c <- CostType.all; k <- 0 until 5) {
    test(s"dijkstra matches Bellman-Ford oracle (cost=${c.name}, case $k)") {
      val rnd = new scala.util.Random(100 + k)
      val s = rnd.nextInt(grid.n); val d = rnd.nextInt(grid.n)
      val p = grid.dijkstra(s, d, c.of)
      val expect = TestNets.bellmanFordCost(grid, s, d, c.of)
      assert(p.isDefined)
      assert(math.abs(grid.pathCost(p.get, c.of) - expect) < 1e-9)
      assert(p.get.head === s && p.get.last === d)
      assert(grid.isValidPath(p.get))
    }
  }

  test("bfsUntil stops at (and reports) stop vertices without passing them") {
    // 0-1-2-3-4 ; stop at 2 → 3,4 unreachable
    val stops = TestNets.bfsUntil(line, Seq(0), v => v == 2)
    assert(stops === Set(2))
    val stops2 = TestNets.bfsUntil(line, Seq(0), v => v == 4)
    assert(stops2 === Set(4))
  }

  test("reachableFrom covers the whole connected grid") {
    assert(TestNets.reachableFrom(grid, 0).size === grid.n)
  }

  test("euclid is a metric on vertex positions") {
    assert(grid.euclid(0, 0) === 0.0)
    assert(grid.euclid(0, 5) === grid.euclid(5, 0))
  }
}
