package repro.roadnet

import scala.collection.mutable

/** A road intersection with planar coordinates in kilometres. */
final case class Vertex(id: Int, x: Double, y: Double)

/** A directed road segment.
  *
  * @param dist length in km
  * @param tt   travel time in minutes
  * @param fc   fuel consumption in litres
  * @param rt   OSM-style road type, 1 = motorway … 6 = residential
  */
final case class Edge(src: Int, dst: Int, dist: Double, tt: Double, fc: Double, rt: Int)

/** An edge cost for the searches; a lambda such as `_.tt` converts to it.
  * A [[CostType]] is read from a per-edge column instead of being called,
  * and any other cost returns its result unboxed.
  */
trait EdgeCost { def of(e: Edge): Double }

/** In-memory road network 𝒢 = (𝕍, 𝔼, 𝕎) with adjacency indexes and the
  * search kernels every stage of the pipeline relies on: plain Dijkstra and
  * the paper's preference-aware Dijkstra (Algorithm 2), both run by one
  * search loop, and BFS (used for B-edge construction).
  *
  * The network is broadcast to executors for the distributed fan-out
  * stages, hence [[Serializable]]. Vertex ids must be 0..n-1.
  */
final class RoadNetwork(val vertices: Array[Vertex], val edges: Array[Edge]) extends Serializable {

  val n: Int = vertices.length

  /** Outgoing edge indices per vertex. */
  val adj: Array[Array[Int]] = {
    val buf = Array.fill(n)(mutable.ArrayBuffer.empty[Int])
    edges.zipWithIndex.foreach { case (e, i) => buf(e.src) += i }
    buf.map(_.toArray)
  }

  /** Incoming edge indices per vertex. */
  val radj: Array[Array[Int]] = {
    val buf = Array.fill(n)(mutable.ArrayBuffer.empty[Int])
    edges.zipWithIndex.foreach { case (e, i) => buf(e.dst) += i }
    buf.map(_.toArray)
  }

  private val edgeIdx: java.util.HashMap[Long, Int] = {
    val m = new java.util.HashMap[Long, Int](edges.length * 2)
    edges.zipWithIndex.foreach { case (e, i) => m.put(e.src.toLong << 32 | (e.dst.toLong & 0xffffffffL), i) }
    m
  }

  /** The edge from u to v, if any. */
  def edgeBetween(u: Int, v: Int): Option[Edge] = {
    val i = edgeIdx.getOrDefault(u.toLong << 32 | (v.toLong & 0xffffffffL), -1)
    if (i < 0) None else Some(edges(i))
  }

  /** Length (km) of the undirected road between u and v; 0 if absent. */
  def lenBetween(u: Int, v: Int): Double =
    edgeBetween(u, v).orElse(edgeBetween(v, u)).map(_.dist).getOrElse(0.0)

  /** Euclidean distance between two vertices in km. */
  def euclid(u: Int, v: Int): Double = {
    val a = vertices(u); val b = vertices(v)
    math.hypot(a.x - b.x, a.y - b.y)
  }

  /** Sum of `cost` over the consecutive edges of `path`; +inf if a hop is
    * not an edge of the network (so tests catch invalid paths).
    */
  def pathCost(path: IndexedSeq[Int], cost: Edge => Double): Double = {
    var s = 0.0
    var i = 0
    while (i + 1 < path.length) {
      edgeBetween(path(i), path(i + 1)) match {
        case Some(e) => s += cost(e)
        case None    => return Double.PositiveInfinity
      }
      i += 1
    }
    s
  }

  /** Path length in km. */
  def pathLength(path: IndexedSeq[Int]): Double = pathCost(path, _.dist)

  /** True iff every consecutive vertex pair is connected by an edge. */
  def isValidPath(path: IndexedSeq[Int]): Boolean =
    path.nonEmpty && path.sliding(2).forall {
      case Seq(a, b) => edgeBetween(a, b).isDefined
      case _         => true
    }

  // ---------------------------------------------------------------- searches

  /** Per-edge cost of each [[CostType]], by id. The one search loop serves
    * every caller, so a cost call in it cannot be inlined; reading a column
    * keeps the searches under a cost feature free of calls.
    */
  @transient private lazy val featureCost: Array[Array[Double]] = CostType.all.map(c => edges.map(c.of)).toArray

  private final class MinPQ {
    // Binary-heap PQ of (cost, vertex) with lazy deletion.
    private val q = mutable.PriorityQueue.empty[(Double, Int)](RoadNetwork.costFirst)
    // addOne, not enqueue: the same sift-up without a varargs iterator
    def push(c: Double, v: Int): Unit = q.addOne((c, v))
    def pop(): (Double, Int) = q.dequeue()
    def nonEmpty: Boolean = q.nonEmpty
  }

  private def reconstruct(parent: Array[Int], src: Int, dst: Int): Vector[Int] = {
    val b = mutable.ArrayBuffer[Int](dst)
    var v = dst
    while (v != src) { v = parent(v); b += v }
    b.reverseIterator.toVector
  }

  /** Single-source single-target Dijkstra under an arbitrary edge cost.
    * Returns the optimal path (inclusive of endpoints), or None if
    * unreachable. `src == dst` yields the trivial one-vertex path.
    */
  def dijkstra(src: Int, dst: Int, cost: EdgeCost): Option[Vector[Int]] =
    search(src, dst, cost, -1)

  /** The paper's Algorithm 2: Dijkstra under the master cost where, when a
    * vertex has at least one outgoing edge whose road type satisfies the
    * slave feature, only those edges are explored; otherwise all edges are.
    *
    * The restriction can disconnect the destination in rare topologies, so
    * we fall back to the plain master-cost Dijkstra in that case (the paper
    * does not discuss it; the fallback keeps routing total).
    */
  def prefDijkstra(src: Int, dst: Int, pref: Preference): Option[Vector[Int]] = {
    val path = search(src, dst, pref.master, pref.slaveRt)
    if (path.isEmpty && pref.slave.isDefined) search(src, dst, pref.master, -1) else path
  }

  /** The one search loop: Dijkstra from `src` to `dst`, restricted by
    * Algorithm 2's slave rule unless `slaveRt` is -1. Costs are
    * non-negative and relaxation is strict, so a vertex's parent is settled
    * before it and the returned path is simple.
    */
  private def search(src: Int, dst: Int, cost: EdgeCost, slaveRt: Int): Option[Vector[Int]] = {
    val column = cost match { case c: CostType => featureCost(c.id); case _ => null }
    val dist = Array.fill(n)(Double.PositiveInfinity)
    val parent = Array.fill(n)(-1)
    val done = new Array[Boolean](n)
    val pq = new MinPQ
    dist(src) = 0.0; pq.push(0.0, src)
    while (pq.nonEmpty) {
      val (c, u) = pq.pop()
      if (!done(u)) {
        done(u) = true
        if (u == dst) return Some(reconstruct(parent, src, dst))
        val out = adj(u)
        var anySat = false
        var i = 0
        while (slaveRt >= 0 && i < out.length && !anySat) { if (edges(out(i)).rt == slaveRt) anySat = true; i += 1 }
        i = 0
        while (i < out.length) {
          val e = edges(out(i))
          if (!anySat || e.rt == slaveRt) {
            val nc = c + (if (column != null) column(out(i)) else cost.of(e))
            if (nc < dist(e.dst)) { dist(e.dst) = nc; parent(e.dst) = u; pq.push(nc, e.dst) }
          }
          i += 1
        }
      }
    }
    None
  }

  /** Multi-source BFS over the undirected topology starting from `sources`,
    * where expansion stops at (but records) any vertex for which `stopAt`
    * holds. Returns the set of stop vertices reached. Used by the B-edge
    * construction: start from a region's members, stop at other regions.
    */
  def bfsUntil(sources: Iterable[Int], stopAt: Int => Boolean): Set[Int] = {
    val seen = new Array[Boolean](n)
    val stops = mutable.Set.empty[Int]
    val queue = mutable.Queue.empty[Int]
    sources.foreach { s => if (!seen(s)) { seen(s) = true; queue.enqueue(s) } }
    while (queue.nonEmpty) {
      val u = queue.dequeue()
      val neigh = adj(u).map(edges(_).dst) ++ radj(u).map(edges(_).src)
      neigh.foreach { v =>
        if (!seen(v)) {
          seen(v) = true
          if (stopAt(v)) stops += v
          else queue.enqueue(v)
        }
      }
    }
    stops.toSet
  }

  /** Vertices reachable from `src` over the undirected topology. */
  def reachableFrom(src: Int): Set[Int] = {
    val seen = new Array[Boolean](n)
    val queue = mutable.Queue(src)
    seen(src) = true
    val out = mutable.Set(src)
    while (queue.nonEmpty) {
      val u = queue.dequeue()
      (adj(u).map(edges(_).dst) ++ radj(u).map(edges(_).src)).foreach { v =>
        if (!seen(v)) { seen(v) = true; out += v; queue.enqueue(v) }
      }
    }
    out.toSet
  }
}

object RoadNetwork {

  /** `Ordering.by[(Double, Int), Double](_._1).reverse`, method for method,
    * so the heap keeps its order. It avoids the library's shared
    * `Ordering.by` class, whose inner compare every `Ordering.by` in the JVM
    * profiles: once other users reach it, the JIT no longer inlines it, and
    * each compare boxes both costs.
    */
  private val costFirst: Ordering[(Double, Int)] = new Ordering[(Double, Int)] {
    def compare(a: (Double, Int), b: (Double, Int)): Int = java.lang.Double.compare(b._1, a._1)
    override def lt(a: (Double, Int), b: (Double, Int)): Boolean = b._1 < a._1
    override def lteq(a: (Double, Int), b: (Double, Int)): Boolean = b._1 <= a._1
    override def gt(a: (Double, Int), b: (Double, Int)): Boolean = b._1 > a._1
    override def gteq(a: (Double, Int), b: (Double, Int)): Boolean = b._1 >= a._1
    override def equiv(a: (Double, Int), b: (Double, Int)): Boolean = b._1 == a._1
  }
}
