package repro.roadnet

import repro.util.CsrGraph

import scala.collection.immutable.ArraySeq
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
  * Costs must be non-negative and not NaN; a search rejects any other with
  * an [[IllegalArgumentException]].
  */
trait EdgeCost { def of(e: Edge): Double }

/** An [[EdgeCost]] evaluated once into a CSR cost column of the network
  * that built it ([[RoadNetwork.column]]); that network's searches read the
  * column directly, as they read a [[CostType]]'s.
  */
final class CostColumn private[roadnet] (owner: RoadNetwork, private[roadnet] val values: Array[Double])
    extends EdgeCost {
  private[roadnet] def ownedBy(net: RoadNetwork): Boolean = net eq owner
  def of(e: Edge): Double = values(owner.csrPosition(e))
}

/** In-memory road network 𝒢 = (𝕍, 𝔼, 𝕎) with adjacency indexes and the
  * searches every stage of the pipeline relies on: plain Dijkstra and the
  * paper's preference-aware Dijkstra (Algorithm 2), to one target or to
  * many. All of them run on [[repro.util.CsrGraph]], the one search kernel
  * that also serves the router's region search; this class selects the cost
  * column and passes a per-hop cost of 0, which leaves every path cost as
  * the sum of its edge costs.
  *
  * The kernel reads the graph as CSR columns (`off`, `dst`, `rt`) in `adj`
  * order, so every vertex relaxes its out-edges in the order of `adj`, and
  * one cost column per [[CostType]]. A [[CostColumn]] built by [[column]] is
  * read as it is, and any other [[EdgeCost]] is evaluated into a per-thread
  * column once per search. A search rejects a cost column with a negative or
  * NaN entry, which could otherwise re-parent a settled vertex and send
  * path reconstruction round a cycle.
  *
  * Trip generation broadcasts the network to executors, hence
  * [[Serializable]]; every other stage shares one network across the
  * threads of a [[repro.util.DriverPool]]. The CSR columns and the kernel
  * are transient and rebuilt on first use. Vertex ids must be 0..n-1 and edge
  * endpoints vertex ids; the constructor checks both.
  */
final class RoadNetwork(val vertices: Array[Vertex], val edges: Array[Edge]) extends Serializable {
  val n: Int = vertices.length

  require(vertices.indices.forall(i => vertices(i).id == i), "vertex ids must be 0..n-1 in array order")
  require(edges.forall(e => e.src >= 0 && e.src < n && e.dst >= 0 && e.dst < n),
    s"edge endpoints must be vertex ids in 0..${n - 1}")
  require(edges.forall(e => e.rt.toByte == e.rt), "road types must fit in a byte")

  /** Outgoing edge indices per vertex. */
  val adj: Array[Array[Int]] = {
    val buf = Array.fill(n)(mutable.ArrayBuffer.empty[Int])
    edges.zipWithIndex.foreach { case (e, i) => buf(e.src) += i }
    buf.map(_.toArray)
  }

  /** The edge from u to v, if any: of parallel u → v edges, the last in
    * `edges`. None when u is not a vertex id.
    */
  def edgeBetween(u: Int, v: Int): Option[Edge] =
    if (u < 0 || u >= n) None else adj(u).findLast(edges(_).dst == v).map(edges(_))

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

  /** CSR form of `adj`: the out-edges of u are positions off(u) until
    * off(u + 1), holding the edge's index, and in the kernel its target and
    * road type.
    */
  @transient private lazy val off: Array[Int] = adj.scanLeft(0)(_ + _.length)
  @transient private lazy val eid: Array[Int] = adj.flatten
  @transient private lazy val graph: CsrGraph = new CsrGraph(off, eid.map(edges(_).dst), eid.map(edges(_).rt.toByte))

  /** The CSR cost column of each [[CostType]], by id. */
  @transient private lazy val featureCost: Array[Array[Double]] =
    CostType.all.map(c => fillColumn(c, new Array[Double](edges.length))).toArray

  /** Per thread, the column of a cost with no column of its own. */
  @transient private lazy val scratch: ThreadLocal[Array[Double]] =
    ThreadLocal.withInitial(() => new Array[Double](edges.length))

  /** `cost` evaluated once into a cost column of this network, for a cost
    * that many searches share; rejects negative and NaN costs now.
    */
  def column(cost: EdgeCost): CostColumn = new CostColumn(this, fillColumn(cost, new Array[Double](edges.length)))

  /** The CSR position of edge `e`, an edge of this network. */
  private[roadnet] def csrPosition(e: Edge): Int = {
    val k = adj(e.src).indexWhere(edges(_) == e)
    require(k >= 0, s"$e is not an edge of this network")
    off(e.src) + k
  }

  /** Writes `cost` of every edge into `col` in CSR order, rejecting negative
    * and NaN costs.
    */
  private def fillColumn(cost: EdgeCost, col: Array[Double]): Array[Double] = {
    var p = 0
    while (p < col.length) {
      val c = cost.of(edges(eid(p)))
      if (!(c >= 0.0)) throw new IllegalArgumentException(s"edge cost must be non-negative, got $c on ${edges(eid(p))}")
      col(p) = c
      p += 1
    }
    col
  }

  /** Single-source single-target Dijkstra under an arbitrary edge cost.
    * Returns the optimal path (inclusive of endpoints), or None if
    * unreachable. `src == dst` yields the trivial one-vertex path.
    */
  def dijkstra(src: Int, dst: Int, cost: EdgeCost): Option[Vector[Int]] =
    search(src, Array(dst), cost, -1)(0)

  /** The paper's Algorithm 2: Dijkstra under the master cost where, when a
    * vertex has at least one outgoing edge whose road type satisfies the
    * slave feature, only those edges are explored; otherwise all edges are.
    *
    * The restriction can disconnect the destination in rare topologies, so
    * we fall back to the plain master-cost Dijkstra in that case (the paper
    * does not discuss it; the fallback keeps routing total).
    */
  def prefDijkstra(src: Int, dst: Int, pref: Preference): Option[Vector[Int]] =
    prefDijkstraMany(src, ArraySeq(dst), Seq(pref))(0)(0)

  /** [[prefDijkstra]] from `src` to every vertex of `targets` under each of
    * `prefs`: `result(p)(t)` equals `prefDijkstra(src, targets(t), prefs(p))`.
    * Targets may repeat and may include `src`. Each preference with a slave
    * runs one restricted search that stops once all targets are settled.
    * Each master then runs at most one master-cost search: to every target
    * if `prefs` holds the master with no slave, else to the targets its
    * slave preferences missed. That search answers the master's preference
    * with no slave and is the slave-rule fallback of all the others, since
    * a many-target search returns each target's single-target path.
    *
    * Where `prefs` holds a slave road type under more than one master (as
    * learning's `Preference.all` does), a reach pass (`slaveReach`) runs
    * once before that type's first restricted search, and each restricted
    * search of the type runs to the targets the pass reached only; with none
    * it does not run. A restricted search can settle only what the pass
    * reaches, so the targets it leaves out are the ones it would have
    * missed after sweeping all the slave rule lets it reach. Leaving them
    * out changes no path, as each target's path is its single-target path,
    * and they fall to the master-cost search as before. Calls with each
    * slave type under one master (trip generation, B-edge paths, routing)
    * run no pass.
    *
    * The bookkeeping is array loops: every [[prefDijkstra]] runs through
    * here, thousands of them (trip generation) before the JIT has compiled
    * it.
    */
  def prefDijkstraMany(src: Int, targets: IndexedSeq[Int], prefs: Seq[Preference]): IndexedSeq[IndexedSeq[Option[Vector[Int]]]] = {
    val ts = targets.toArray
    val ps = prefs.toArray
    val paths = new Array[Array[Option[Vector[Int]]]](ps.length)
    // by slave road type held under more than one master: the targets its rule reaches
    val reach = mutable.HashMap.empty[Int, Array[Boolean]]
    // by master id: the targets its master-only search must settle
    val need = new Array[Array[Boolean]](CostType.all.length)
    var p = 0
    while (p < ps.length) {
      val m = ps(p).masterId; val r = ps(p).slaveRt
      if (r >= 0) paths(p) =
        if (ps.exists(o => o.slaveRt == r && o.masterId != m))
          searchWhere(src, ts, reach.getOrElseUpdate(r, slaveReach(src, ts, r)), ps(p).master, r)
        else search(src, ts, ps(p).master, r)
      if (need(m) == null) need(m) = new Array[Boolean](ts.length)
      var t = 0
      while (t < ts.length) { if (paths(p) == null || paths(p)(t).isEmpty) need(m)(t) = true; t += 1 }
      p += 1
    }
    // by master id: each target's master-only path, where it was searched
    val plain = Array.tabulate(need.length) { m =>
      if (need(m) == null) null else searchWhere(src, ts, need(m), CostType.byId(m), -1)
    }
    p = 0
    while (p < ps.length) {
      val master = plain(ps(p).masterId)
      if (paths(p) == null) paths(p) = master
      else {
        var t = 0
        while (t < ts.length) { if (paths(p)(t).isEmpty) paths(p)(t) = master(t); t += 1 }
      }
      p += 1
    }
    ArraySeq.unsafeWrapArray(paths.map(ArraySeq.unsafeWrapArray(_)))
  }

  /** [[search]] to the targets `ts(t)` where `want(t)` holds, None at the
    * others; runs no search when none is wanted.
    */
  private def searchWhere(src: Int, ts: Array[Int], want: Array[Boolean], cost: EdgeCost, slaveRt: Int): Array[Option[Vector[Int]]] = {
    val found = Array.fill[Option[Vector[Int]]](ts.length)(None)
    var k = 0
    var t = 0
    while (t < ts.length) { if (want(t)) k += 1; t += 1 }
    if (k > 0) {
      val at = new Array[Int](k)
      k = 0; t = 0
      while (t < ts.length) { if (want(t)) { at(k) = t; k += 1 }; t += 1 }
      val res = search(src, at.map(ts(_)), cost, slaveRt)
      k = 0
      while (k < at.length) { found(at(k)) = res(k); k += 1 }
    }
    found
  }

  /** The kernel's reach pass ([[CsrGraph.reach]]) under Algorithm 2's
    * slave rule for `slaveRt`.
    */
  private[roadnet] def slaveReach(src: Int, targets: Array[Int], slaveRt: Int): Array[Boolean] =
    graph.reach(src, targets, slaveRt)

  /** The kernel's search ([[CsrGraph.search]]) under `cost`'s column, with
    * no per-hop cost: each target's path, or None where it was not reached.
    */
  private def search(src: Int, targets: Array[Int], cost: EdgeCost, slaveRt: Int): Array[Option[Vector[Int]]] = {
    val col = cost match {
      case c: CostType                     => featureCost(c.id)
      case c: CostColumn if c.ownedBy(this) => c.values
      case _                               => fillColumn(cost, scratch.get)
    }
    graph.search(src, targets, col, slaveRt, 0.0)
  }
}
