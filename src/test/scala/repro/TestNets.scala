package repro

import repro.roadnet._

import scala.collection.mutable
import scala.util.Random

/** Hand-built networks for unit tests. */
object TestNets {

  /** Build a bidirectional network from undirected (u, v, distKm, roadType)
    * tuples; tt/fc follow the generator's speed and fuel models.
    */
  def custom(coords: Seq[(Double, Double)], undirected: Seq[(Int, Int, Double, Int)]): RoadNetwork = {
    val vertices = coords.zipWithIndex.map { case ((x, y), i) => Vertex(i, x, y) }.toArray
    val edges = undirected.flatMap { case (u, v, len, rt) =>
      val speed = RoadNetGen.speedKmh(rt)
      val tt = len / speed * 60.0
      val fc = len * RoadNetGen.fcPerKm(speed)
      Seq(Edge(u, v, len, tt, fc, rt), Edge(v, u, len, tt, fc, rt))
    }.toArray
    new RoadNetwork(vertices, edges)
  }

  /** 0—1—2—…—(n-1) line with unit lengths, residential. */
  def line(n: Int, rt: Int = 6): RoadNetwork =
    custom(Seq.tabulate(n)(i => (i.toDouble, 0.0)),
           Seq.tabulate(n - 1)(i => (i, i + 1, 1.0, rt)))

  /** Small deterministic grid via the generator. */
  def smallGrid(cols: Int = 12, rows: Int = 10, seed: Long = 3L): RoadNetwork =
    RoadNetGen.grid(RoadNetGen.Config(cols, rows, spacingKm = 0.3, seed = seed))

  /** Each vertex's neighbours over the undirected topology: the heads of
    * its out-edges, then the tails of its in-edges, in edge order.
    */
  private def undirected(net: RoadNetwork): Array[Seq[Int]] = {
    val in = Array.fill(net.n)(mutable.ArrayBuffer.empty[Int])
    net.edges.foreach(e => in(e.dst) += e.src)
    Array.tabulate(net.n)(u => net.adj(u).toSeq.map(net.edges(_).dst) ++ in(u))
  }

  /** Vertices reachable from `src` over the undirected topology. */
  def reachableFrom(net: RoadNetwork, src: Int): Set[Int] = {
    val neigh = undirected(net)
    val seen = mutable.Set(src)
    var frontier = List(src)
    while (frontier.nonEmpty) frontier = frontier.flatMap(neigh(_).filter(seen.add))
    seen.toSet
  }

  /** The per-region search `RegionGraph.bEdges` replaced (test oracle): a
    * breadth-first search over the undirected topology from `sources`, which
    * stops at (and records) every vertex for which `stopAt` holds.
    */
  def bfsUntil(net: RoadNetwork, sources: Iterable[Int], stopAt: Int => Boolean): Set[Int] = {
    val neigh = undirected(net)
    val seen = new Array[Boolean](net.n)
    val stops = mutable.Set.empty[Int]
    val queue = mutable.Queue.empty[Int]
    sources.foreach { s => if (!seen(s)) { seen(s) = true; queue.enqueue(s) } }
    while (queue.nonEmpty) {
      neigh(queue.dequeue()).foreach { v =>
        if (!seen(v)) {
          seen(v) = true
          if (stopAt(v)) stops += v
          else queue.enqueue(v)
        }
      }
    }
    stops.toSet
  }

  /** Brute-force lowest-cost path cost via Bellman-Ford (test oracle). */
  def bellmanFordCost(net: RoadNetwork, src: Int, dst: Int, cost: Edge => Double): Double = {
    val dist = Array.fill(net.n)(Double.PositiveInfinity)
    dist(src) = 0.0
    var changed = true
    var iter = 0
    while (changed && iter <= net.n) {
      changed = false
      net.edges.foreach { e =>
        if (dist(e.src) + cost(e) < dist(e.dst) - 1e-12) {
          dist(e.dst) = dist(e.src) + cost(e); changed = true
        }
      }
      iter += 1
    }
    dist(dst)
  }

  /** Reversed cost order with IEEE comparisons, the order of the reference
    * search loop below.
    */
  val costFirst: Ordering[(Double, Int)] =
    Ordering.by[(Double, Int), Double](_._1)(Ordering.Double.IeeeOrdering).reverse

  /** A reference search loop (the kernel's before it ran on primitive
    * arrays): `mutable.PriorityQueue` with lazy deletion, `Array.fill`
    * state, strict relaxation and Algorithm 2's slave rule unless `slaveRt`
    * is -1.
    */
  def refSearch(net: RoadNetwork, src: Int, dst: Int, cost: EdgeCost, slaveRt: Int,
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

  /** Algorithm 2 with its master-cost fallback on the reference loop. */
  def refPref(net: RoadNetwork, s: Int, d: Int, pref: Preference,
              order: Ordering[(Double, Int)] = costFirst): Option[Vector[Int]] = {
    val p = refSearch(net, s, d, pref.master, pref.slaveRt, order)
    if (p.isEmpty && pref.slave.isDefined) refSearch(net, s, d, pref.master, -1, order) else p
  }

  /** True iff Algorithm 2's slave rule alone leaves d unreachable from s, so
    * `prefDijkstra` answers with its fallback.
    */
  def needsFallback(net: RoadNetwork, s: Int, d: Int, pref: Preference): Boolean =
    pref.slave.isDefined && refSearch(net, s, d, pref.master, pref.slaveRt).isEmpty

  /** A seeded one-way network on 2–24 vertices with integer weights in
    * 0..3, so equal-cost paths are everywhere. Each ordered pair gets an
    * edge independently: many edges are one-way and sparse draws split into
    * components. Road types are 1–3, so many vertices lack an out-edge of a
    * given slave type and slaves 4–6 never match.
    */
  def tieNet(rnd: Random): RoadNetwork = {
    val n = 2 + rnd.nextInt(23)
    val density = (1.0 + 3.0 * rnd.nextDouble()) / n
    val vertices = Array.tabulate(n)(i => Vertex(i, rnd.nextDouble(), rnd.nextDouble()))
    val edges = for (u <- 0 until n; v <- 0 until n if u != v && rnd.nextDouble() < density)
      yield Edge(u, v, rnd.nextInt(4), rnd.nextInt(4), rnd.nextInt(4), 1 + rnd.nextInt(3))
    new RoadNetwork(vertices, edges.toArray)
  }
}
