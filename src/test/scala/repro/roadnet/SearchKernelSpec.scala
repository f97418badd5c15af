package repro.roadnet

import repro.{SparkSpec, TestNets}

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import scala.collection.mutable
import scala.util.Random

/** Tests of `RoadNetwork`'s search kernel: tie-exact agreement with the
  * library-heap loop it replaced, per-thread workspace safety, and its
  * input checks.
  */
class SearchKernelSpec extends SparkSpec {

  // --------------------------------------------------- reference loop

  /** Reversed cost order with IEEE comparisons, equal to the replaced
    * loop's `costFirst`.
    */
  private val costFirst: Ordering[(Double, Int)] =
    Ordering.by[(Double, Int), Double](_._1)(Ordering.Double.IeeeOrdering).reverse

  /** The replaced search loop: `mutable.PriorityQueue` with lazy deletion,
    * `Array.fill` state, strict relaxation and Algorithm 2's slave rule
    * unless `slaveRt` is -1.
    */
  private def refSearch(net: RoadNetwork, src: Int, dst: Int, cost: EdgeCost, slaveRt: Int,
                        order: Ordering[(Double, Int)] = costFirst): Option[Vector[Int]] = {
    val dist = Array.fill(net.n)(Double.PositiveInfinity)
    val parent = Array.fill(net.n)(-1)
    val done = new Array[Boolean](net.n)
    val pq = mutable.PriorityQueue.empty[(Double, Int)](order)
    dist(src) = 0.0; pq.addOne((0.0, src))
    while (pq.nonEmpty) {
      val (c, u) = pq.dequeue()
      if (!done(u)) {
        done(u) = true
        if (u == dst) {
          val b = mutable.ArrayBuffer(dst)
          var v = dst
          while (v != src) { v = parent(v); b += v }
          return Some(b.reverseIterator.toVector)
        }
        val out = net.adj(u).map(net.edges(_))
        val anySat = slaveRt >= 0 && out.exists(_.rt == slaveRt)
        out.foreach { e =>
          if (!anySat || e.rt == slaveRt) {
            val nc = c + cost.of(e)
            if (nc < dist(e.dst)) { dist(e.dst) = nc; parent(e.dst) = u; pq.addOne((nc, e.dst)) }
          }
        }
      }
    }
    None
  }

  private def refPref(net: RoadNetwork, s: Int, d: Int, pref: Preference,
                      order: Ordering[(Double, Int)] = costFirst): Option[Vector[Int]] = {
    val p = refSearch(net, s, d, pref.master, pref.slaveRt, order)
    if (p.isEmpty && pref.slave.isDefined) refSearch(net, s, d, pref.master, -1, order) else p
  }

  /** A seeded one-way network on 2–24 vertices with integer weights in
    * 0..3, so equal-cost paths are everywhere. Each ordered pair gets an
    * edge independently: many edges are one-way and sparse draws split into
    * components. Road types are 1–3, so many vertices lack an out-edge of a
    * given slave type and slaves 4–6 never match.
    */
  private def tieNet(rnd: Random): RoadNetwork = {
    val n = 2 + rnd.nextInt(23)
    val density = (1.0 + 3.0 * rnd.nextDouble()) / n
    val vertices = Array.tabulate(n)(i => Vertex(i, rnd.nextDouble(), rnd.nextDouble()))
    val edges = for (u <- 0 until n; v <- 0 until n if u != v && rnd.nextDouble() < density)
      yield Edge(u, v, rnd.nextInt(4), rnd.nextInt(4), rnd.nextInt(4), 1 + rnd.nextInt(3))
    new RoadNetwork(vertices, edges.toArray)
  }

  private val prefs = for (c <- CostType.all; sl <- None +: (1 to 6).map(Some(_))) yield Preference(c, sl)
  private val lambda: EdgeCost = e => e.dist + 2 * e.tt * (e.rt % 2)

  test("the kernel returns the replaced loop's exact path on tie-heavy random networks") {
    var unreachable = 0; var fallbacks = 0; var tieSensitive = 0
    // the same search with ties broken by vertex id instead of heap order
    val byVertex: Ordering[(Double, Int)] = (a, b) => {
      val c = java.lang.Double.compare(b._1, a._1)
      if (c != 0) c else Integer.compare(b._2, a._2)
    }
    for (seed <- 0 until 40) {
      val net = tieNet(new Random(5000 + seed))
      for (s <- 0 until net.n; d <- 0 until net.n) {
        prefs.foreach { pref =>
          val expect = refPref(net, s, d, pref)
          assert(net.prefDijkstra(s, d, pref) === expect, s"seed $seed $s→$d $pref")
          if (expect.isEmpty) unreachable += 1
          else if (pref.slave.isDefined && refSearch(net, s, d, pref.master, pref.slaveRt).isEmpty) fallbacks += 1
          if (refPref(net, s, d, pref, byVertex) != expect) tieSensitive += 1
        }
        assert(net.dijkstra(s, d, lambda) === refSearch(net, s, d, lambda, -1), s"seed $seed $s→$d lambda")
      }
    }
    assert(unreachable > 0 && fallbacks > 0, s"unreachable=$unreachable fallbacks=$fallbacks")
    assert(tieSensitive > 1000, s"only $tieSensitive searches depend on the tie order")
  }

  // --------------------------------------------------- workspace safety

  private val grid = TestNets.smallGrid(14, 12)

  /** Seeded (s, d, query) triples over `net`, mixing feature, lambda and
    * preference searches.
    */
  private def queries(net: RoadNetwork, count: Int, seed: Int): IndexedSeq[RoadNetwork => Option[Vector[Int]]] = {
    val rnd = new Random(seed)
    IndexedSeq.fill(count) {
      val s = rnd.nextInt(net.n); val d = rnd.nextInt(net.n)
      val pref = prefs(rnd.nextInt(prefs.length))
      rnd.nextInt(3) match {
        case 0 => (g: RoadNetwork) => g.dijkstra(s, d, pref.master)
        case 1 => (g: RoadNetwork) => g.dijkstra(s, d, lambda)
        case _ => (g: RoadNetwork) => g.prefDijkstra(s, d, pref)
      }
    }
  }

  test("four threads sharing a network return the paths of one thread") {
    val qs = queries(grid, 300, 21)
    val expect = qs.map(_(grid))
    val results = Array.ofDim[IndexedSeq[Option[Vector[Int]]]](4)
    val threads = (0 until 4).map { t =>
      new Thread(() => {
        // each thread starts at a different offset, so different searches overlap
        val order = qs.indices.map(i => (i + 75 * t) % qs.length)
        results(t) = order.map(i => i -> qs(i)(grid)).sortBy(_._1).map(_._2)
      })
    }
    threads.foreach(_.start()); threads.foreach(_.join())
    (0 until 4).foreach(t => assert(results(t) === expect, s"thread $t"))
  }

  test("a search after an early-exit or an unreachable search equals it on a fresh network") {
    // the grid plus an isolated two-vertex component
    val vs = grid.vertices ++ Seq(Vertex(grid.n, -5, -5), Vertex(grid.n + 1, -6, -5))
    val es = grid.edges ++ Seq(Edge(grid.n, grid.n + 1, 1, 1, 1, 6), Edge(grid.n + 1, grid.n, 1, 1, 1, 6))
    val net = new RoadNetwork(vs, es)
    val rnd = new Random(3)
    for (_ <- 0 until 40) {
      val s = rnd.nextInt(grid.n); val d = rnd.nextInt(grid.n)
      val pref = prefs(rnd.nextInt(prefs.length))
      assert(net.dijkstra(s, (s + 1) % grid.n, CostType.TT).isDefined) // stops early
      assert(net.prefDijkstra(s, d, pref) === new RoadNetwork(vs, es).prefDijkstra(s, d, pref))
      assert(net.dijkstra(s, grid.n, CostType.DI).isEmpty) // exhausts s's component
      assert(net.dijkstra(s, d, lambda) === new RoadNetwork(vs, es).dijkstra(s, d, lambda))
    }
  }

  private def serialise(o: AnyRef): Array[Byte] = {
    val bytes = new ByteArrayOutputStream()
    val out = new ObjectOutputStream(bytes)
    out.writeObject(o); out.close()
    bytes.toByteArray
  }

  test("a Java-serialised copy routes identically and searches do not grow the serialised form") {
    val net = TestNets.smallGrid(14, 12)
    val before = serialise(net)
    val copy = new ObjectInputStream(new ByteArrayInputStream(before)).readObject().asInstanceOf[RoadNetwork]
    val qs = queries(net, 200, 8)
    assert(qs.map(_(copy)) === qs.map(_(net)))
    assert(serialise(net).length === before.length)
    assert(serialise(copy).length === before.length)
  }

  // --------------------------------------------------- input checks

  private val v3 = Array(Vertex(0, 0, 0), Vertex(1, 1, 0), Vertex(2, 2, 0))
  private def edge(u: Int, v: Int) = Edge(u, v, 1, 1, 1, 6)

  test("the constructor requires vertex ids 0..n-1") {
    intercept[IllegalArgumentException](new RoadNetwork(Array(Vertex(0, 0, 0), Vertex(2, 1, 0)), Array(edge(0, 1))))
    intercept[IllegalArgumentException](new RoadNetwork(v3.reverse, Array.empty[Edge]))
  }

  test("the constructor requires edge endpoints to be vertex ids") {
    intercept[IllegalArgumentException](new RoadNetwork(v3, Array(edge(0, 3))))
    intercept[IllegalArgumentException](new RoadNetwork(v3, Array(edge(-1, 2))))
  }

  test("a cost-feature search rejects negative and NaN edge costs") {
    val neg = new RoadNetwork(v3, Array(edge(0, 1), edge(1, 2).copy(dist = -0.5)))
    intercept[IllegalArgumentException](neg.dijkstra(0, 2, CostType.DI))
    intercept[IllegalArgumentException](neg.prefDijkstra(0, 1, Preference(CostType.DI, Some(6))))
    val nan = new RoadNetwork(v3, Array(edge(0, 1).copy(tt = Double.NaN), edge(1, 2)))
    intercept[IllegalArgumentException](nan.dijkstra(2, 0, CostType.TT))
  }

  test("a lambda-cost search rejects negative and NaN edge costs") {
    // a negative cost here could re-parent the settled vertex 0
    val net = new RoadNetwork(v3, Array(edge(0, 1), edge(1, 0), edge(1, 2)))
    intercept[IllegalArgumentException](net.dijkstra(0, 2, e => if (e.src == 1 && e.dst == 0) -5.0 else 1.0))
    intercept[IllegalArgumentException](net.dijkstra(0, 2, e => if (e.dst == 2) Double.NaN else 1.0))
    assert(net.dijkstra(0, 2, _ => 1.0) === Some(Vector(0, 1, 2)))
  }
}
