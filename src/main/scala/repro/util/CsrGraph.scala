package repro.util

/** The one search kernel, serving the road network and the region graph:
  * Dijkstra and a breadth-first reach pass over a directed graph in CSR
  * form. The out-edges of vertex u are positions off(u) until off(u + 1),
  * holding each edge's target `dst` and road type `rt`; a vertex relaxes
  * them in position order. [[repro.roadnet.RoadNetwork]] runs every road
  * search here with `hop` 0 and one of its cost columns, and
  * [[repro.core.RegionGraphIndex]] holds one over its region adjacency for
  * the router's region search (centroid distances, `hop` 1 km) and its own
  * connectivity check.
  *
  * A search from one source to many targets stops once every target is
  * settled. Costs are non-negative and relaxation is strict, so a settled
  * vertex's parent never changes (the shortest-path-tree property of
  * Dijkstra 1959): each target's path is the one a single-target search
  * returns, whose loop settles the same vertices in the same order up to
  * that target. The loop runs on primitive arrays only:
  *  - a [[CostHeap]] of (cost, vertex) with lazy deletion, tie-exact with
  *    `mutable.PriorityQueue` under reversed cost order, so every path, trip,
  *    learned preference and region path stays as it was;
  *  - a per-thread workspace (distances, parents, epoch stamps for seen
  *    and settled vertices and for targets, the heap) that a new epoch
  *    resets in O(1).
  * One kernel may serve many threads; each runs on its own workspace.
  */
final class CsrGraph(off: Array[Int], dst: Array[Int], rt: Array[Byte]) {
  import CsrGraph.Workspace

  private[this] val workspace: ThreadLocal[Workspace] = ThreadLocal.withInitial(() => new Workspace(off.length - 1))

  private def reconstruct(parent: Array[Int], src: Int, dst: Int): Vector[Int] = {
    var len = 1
    var v = dst
    while (v != src) { v = parent(v); len += 1 }
    val path = new Array[Int](len)
    v = dst
    var i = len - 1
    while (i >= 0) { path(i) = v; v = parent(v); i -= 1 }
    path.toVector
  }

  /** The search loop: Dijkstra from `src` until every vertex of `targets`
    * is settled, where taking edge p from a vertex settled at cost c costs
    * `c + col(p) + hop`, added in that order. Algorithm 2's slave rule
    * restricts it unless `slaveRt` is -1: where any out-edge of a vertex
    * has road type `slaveRt`, only those are taken. Returns each target's
    * path, or None where it was not reached. `col` (in CSR order) and `hop`
    * must be non-negative and not NaN; then a vertex's parent is settled
    * before it and never changes after, and the returned paths are simple.
    */
  def search(src: Int, targets: Array[Int], col: Array[Double], slaveRt: Int, hop: Double): Array[Option[Vector[Int]]] = {
    val w = workspace.get
    val off = this.off; val dst = this.dst; val rt = this.rt
    val epoch = w.start()
    val dist = w.dist; val parent = w.parent; val seen = w.seen; val settled = w.settled
    var remaining = 0
    targets.foreach { t => if (settled(t) != -epoch) { settled(t) = -epoch; remaining += 1 } }
    seen(src) = epoch; dist(src) = 0.0
    w.push(0.0, src)
    while (w.size > 0 && remaining > 0) {
      val c = w.minCost; val u = w.minVertex
      w.pop()
      val stamp = settled(u)
      if (stamp != epoch) {
        settled(u) = epoch
        if (stamp == -epoch) remaining -= 1
        if (remaining > 0) {
          val lo = off(u); val hi = off(u + 1)
          var anySat = false
          var p = lo
          while (slaveRt >= 0 && p < hi && !anySat) { if (rt(p) == slaveRt) anySat = true; p += 1 }
          p = lo
          while (p < hi) {
            if (!anySat || rt(p) == slaveRt) {
              val v = dst(p)
              val nc = c + col(p) + hop
              if (nc < (if (seen(v) == epoch) dist(v) else Double.PositiveInfinity)) {
                seen(v) = epoch; dist(v) = nc; parent(v) = u; w.push(nc, v)
              }
            }
            p += 1
          }
        }
      }
    }
    targets.map(t => if (settled(t) == epoch) Some(reconstruct(parent, src, t)) else None)
  }

  /** The reach pass: which of `targets` a [[search]] from `src` under the
    * slave rule for `slaveRt` can reach, by a breadth-first pass that
    * follows the edges the rule does; with `slaveRt` -1 it follows every
    * edge. The edges the rule follows depend on the vertex alone, not on
    * the cost, so a restricted search under any cost column settles no
    * target that this pass misses. It may settle fewer: a search never
    * takes an edge that makes a path cost +inf, and the target behind it is
    * left unreached. Stops once every target is found. It runs on the
    * search workspace: an epoch of its own, `seen` for visited vertices,
    * the negated-epoch `settled` stamps for targets and `parent` as its
    * queue.
    */
  def reach(src: Int, targets: Array[Int], slaveRt: Int): Array[Boolean] = {
    val w = workspace.get
    val off = this.off; val dst = this.dst; val rt = this.rt
    val epoch = w.start()
    val seen = w.seen; val settled = w.settled; val queue = w.parent
    var remaining = 0
    targets.foreach { t => if (settled(t) != -epoch) { settled(t) = -epoch; remaining += 1 } }
    seen(src) = epoch; queue(0) = src
    if (settled(src) == -epoch) remaining -= 1
    var head = 0; var tail = 1
    while (head < tail && remaining > 0) {
      val u = queue(head); head += 1
      val lo = off(u); val hi = off(u + 1)
      var anySat = false
      var p = lo
      while (slaveRt >= 0 && p < hi && !anySat) { if (rt(p) == slaveRt) anySat = true; p += 1 }
      p = lo
      while (p < hi) {
        val v = dst(p)
        if ((!anySat || rt(p) == slaveRt) && seen(v) != epoch) {
          seen(v) = epoch; queue(tail) = v; tail += 1
          if (settled(v) == -epoch) remaining -= 1
        }
        p += 1
      }
    }
    targets.map(seen(_) == epoch)
  }
}

object CsrGraph {

  /** One thread's search state: the heap, and per vertex its distance,
    * parent and stamps. `dist` and `parent` of a vertex are valid in the
    * current search iff its `seen` stamp is the current epoch, and it is
    * settled iff its `settled` stamp is; a target not yet settled has the
    * negated epoch as its `settled` stamp. A new epoch so resets all of them
    * in O(1). The reach pass takes an epoch too, and uses `parent` as its
    * queue.
    */
  private final class Workspace(n: Int) extends CostHeap(n) {
    val dist = new Array[Double](n)
    val parent = new Array[Int](n)
    val seen = new Array[Int](n)
    val settled = new Array[Int](n)
    private var epoch = 0

    /** Starts a search with an empty heap and returns its epoch; clears
      * every stamp before the epoch counter would wrap.
      */
    def start(): Int = {
      if (epoch == Int.MaxValue) {
        java.util.Arrays.fill(seen, 0); java.util.Arrays.fill(settled, 0); epoch = 0
      }
      epoch += 1
      clear()
      epoch
    }
  }
}
