package repro.core

import org.apache.spark.sql.Dataset
import repro.roadnet.RoadNetwork
import repro.traj.Trip

/** The *trajectory graph* (Section IV-A): the sub-graph of the road network
  * traversed by trajectories, with popularity weights.
  *
  * Edge popularity s_ij = number of distinct trajectories that occurred on
  * the undirected edge (v_i, v_j); vertex popularity S_i = Σ_j s_ij, which
  * [[Clustering]] sums from the edges. A few hundred training trips are no
  * distributed work: one driver-side pass over the collected trips counts
  * every edge.
  */
object TrajectoryGraph {

  /** [[clusterInput]] of the collected trips; kept for l2rbench until the
    * benchmark PR.
    */
  def clusterInput(trips: Dataset[Trip], net: RoadNetwork): Seq[Clustering.ClusterEdge] =
    clusterInput(trips.collect().toSeq, net)

  /** The clustering input: every undirected edge (u < v) some trip
    * traversed, with the number of distinct trips on it and its road type,
    * in (u, v) order. Each trip's distinct hops are packed as `u << 32 | v`
    * into one primitive array; sorting it puts equal edges next to each
    * other, and the length of each run is the edge's popularity. Throws an
    * [[IllegalArgumentException]] naming the trip and the hop when a hop is
    * not a road edge in either direction.
    */
  def clusterInput(trips: Seq[Trip], net: RoadNetwork): Seq[Clustering.ClusterEdge] = {
    val keys = Array.newBuilder[Long]
    trips.foreach { t =>
      val path = t.path.toArray
      val hops = new Array[Long](math.max(path.length - 1, 0))
      for (i <- hops.indices) {
        val a = path(i); val b = path(i + 1)
        require(roadType(net, a, b) >= 0, s"trip ${t.id}: hop $a → $b is not a road edge")
        hops(i) = (a min b).toLong << 32 | (a max b)
      }
      java.util.Arrays.sort(hops)
      for (i <- hops.indices if i == 0 || hops(i) != hops(i - 1)) keys += hops(i)
    }
    val sorted = keys.result()
    java.util.Arrays.sort(sorted)
    val edges = Seq.newBuilder[Clustering.ClusterEdge]
    var i = 0
    while (i < sorted.length) {
      var j = i + 1
      while (j < sorted.length && sorted(j) == sorted(i)) j += 1
      val u = (sorted(i) >>> 32).toInt; val v = sorted(i).toInt
      edges += Clustering.ClusterEdge(u, v, (j - i).toDouble, roadType(net, u, v))
      i = j
    }
    edges.result()
  }

  /** The road type of the edge u → v, else of v → u, else -1. */
  private def roadType(net: RoadNetwork, u: Int, v: Int): Int =
    net.edgeBetween(u, v).orElse(net.edgeBetween(v, u)).map(_.rt).getOrElse(-1)
}
