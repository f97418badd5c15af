package repro.core

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.roadnet.{Preference, RoadNetwork}
import repro.traj.Trip

import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** A road-network path attached to a region edge, with the number of
  * trajectories that used it. Orientation is recoverable from the regions
  * of its first/last vertex.
  */
final case class PathRec(verts: Seq[Int], count: Int)

/** A region vertex of the region graph. */
final case class RegionInfo(
    id: Int,
    members: Array[Int],
    /** centroid (km coordinates) of the member vertices */
    cx: Double,
    cy: Double,
    /** top-k road types of edges incident to the region ("functionality") */
    topRts: Seq[Int],
    /** vertices where trajectories enter/leave the region */
    transferCenters: Array[Int])

/** A region edge: T-edge (trajectory-derived, with real paths) or B-edge
  * (BFS-derived, paths materialised from a transferred preference).
  */
final case class RegionEdgeData(
    ri: Int,
    rj: Int,
    isT: Boolean,
    paths: Seq[PathRec],
    pref: Option[Preference]) {
  def key: (Int, Int) = if (ri < rj) (ri, rj) else (rj, ri)
}

/** The routing infrastructure of Section IV: region vertices, region edges
  * and inner-region paths, plus the vertex → region lookup.
  */
final class RegionGraphIndex(
    val regions: Map[Int, RegionInfo],
    val vertexRegion: Map[Int, Int],
    val edges: Map[(Int, Int), RegionEdgeData],
    val innerPaths: Map[Int, Seq[PathRec]]) extends Serializable {

  val neighbors: Map[Int, Seq[Int]] = {
    val m = mutable.Map.empty[Int, mutable.ArrayBuffer[Int]]
    edges.keys.foreach { case (a, b) =>
      m.getOrElseUpdate(a, mutable.ArrayBuffer.empty) += b
      m.getOrElseUpdate(b, mutable.ArrayBuffer.empty) += a
    }
    m.view.mapValues(_.toSeq).toMap
  }

  def edgeBetween(a: Int, b: Int): Option[RegionEdgeData] = edges.get(if (a < b) (a, b) else (b, a))

  def centroidDist(a: Int, b: Int): Double = {
    val ra = regions(a); val rb = regions(b)
    math.hypot(ra.cx - rb.cx, ra.cy - rb.cy)
  }

  /** Is the region graph connected? (guaranteed by B-edge construction when
    * the road network is connected)
    */
  def isConnected: Boolean = {
    if (regions.isEmpty) return true
    val seen = mutable.Set(regions.keys.head)
    val q = mutable.Queue(regions.keys.head)
    while (q.nonEmpty) {
      val r = q.dequeue()
      neighbors.getOrElse(r, Nil).foreach(n => if (seen.add(n)) q.enqueue(n))
    }
    seen.size == regions.size
  }
}

/** Builds the region graph from the clustered regions and the trip set
  * (Section IV-B). One driver-side pass extracts every trip's region
  * segments and keeps the most frequent T-edge paths, inner-region paths
  * and transfer centers; the B-edge BFS runs on the driver over the full
  * road network. A few hundred training trips are no distributed work.
  */
object RegionGraph {

  /** Extraction rows of one trip.
    *
    * A T-edge row carries the *extended* fragment — the trajectory's
    * sub-path from entering R_i to leaving R_j. The paper's boundary
    * path (leave R_i at v_a … enter R_j at v_b) is the slice
    * [leaveOff, enterOff] of it. The extension is still pure trajectory
    * truth; it matters because boundary paths between adjacent regions
    * are 2-vertex hops that carry no routing-preference signal, while
    * the extended fragment is preference-identifiable (any sub-path of a
    * preference-optimal path is preference-optimal for the same vector).
    */
  final case class TEdgeRow(ri: Int, rj: Int, path: Seq[Int], leaveOff: Int, enterOff: Int)
  final case class InnerRow(r: Int, path: Seq[Int])
  final case class TcRow(r: Int, v: Int)

  final case class Params(
      topPathsPerTEdge: Int = 8,
      topInnerPerRegion: Int = 16,
      maxSegmentsPerTrip: Int = 24,
      maxTransferCenters: Int = 12,
      topKRoadTypes: Int = 2)

  /** Compress a trip's path into maximal segments of consecutive vertices
    * lying in the same region: (region, startIdx, endIdx).
    */
  def segments(path: Seq[Int], vertexRegion: Int => Int): Seq[(Int, Int, Int)] = {
    val segs = mutable.ArrayBuffer.empty[(Int, Int, Int)]
    var i = 0
    val arr = path.toIndexedSeq
    while (i < arr.length) {
      val r = vertexRegion(arr(i))
      if (r >= 0) {
        var j = i
        while (j + 1 < arr.length && vertexRegion(arr(j + 1)) == r) j += 1
        segs += ((r, i, j))
        i = j + 1
      } else i += 1
    }
    segs.toSeq
  }

  /** Per-trip extraction: T-edge paths for every ordered pair of visited
    * regions (the paper's "up to m(m−1)/2 region edges per trajectory"),
    * inner-region sub-paths, and transfer centers.
    */
  def extract(trip: Trip, vertexRegion: Int => Int, maxSegs: Int): (Seq[TEdgeRow], Seq[InnerRow], Seq[TcRow]) = {
    val arr = ArraySeq.unsafeWrapArray(trip.path.toArray) // unboxed, and so is every row's slice
    val segs = segments(arr, vertexRegion).take(maxSegs)
    val t = mutable.ArrayBuffer.empty[TEdgeRow]
    for (i <- segs.indices; j <- (i + 1) until segs.length) {
      val (ri, startI, endI) = segs(i)
      val (rj, startJ, endJ) = segs(j)
      if (ri != rj)
        t += TEdgeRow(ri, rj, arr.slice(startI, endJ + 1), endI - startI, startJ - startI)
    }
    val inner = segs.collect { case (r, s, e) if e > s => InnerRow(r, arr.slice(s, e + 1)) }
    val tc = segs.flatMap { case (r, s, e) => Seq(TcRow(r, arr(s)), TcRow(r, arr(e))) }.distinct
    (t.toSeq, inner, tc)
  }

  /** Region features: centroid + top-k road types of incident edges. */
  def regionInfo(net: RoadNetwork, region: Clustering.Region, tcs: Array[Int], topK: Int): RegionInfo = {
    val ms = region.members.toArray
    val cx = ms.map(net.vertices(_).x).sum / ms.length
    val cy = ms.map(net.vertices(_).y).sum / ms.length
    val rtLen = mutable.Map.empty[Int, Double].withDefaultValue(0.0)
    ms.foreach { v => net.adj(v).foreach { ei => val e = net.edges(ei); rtLen(e.rt) += e.dist } }
    val topRts = rtLen.toSeq.sortBy { case (rt, len) => (-len, rt) }.take(topK).map(_._1)
    RegionInfo(region.id, ms, cx, cy, topRts, tcs)
  }

  /** B-edge construction (Section IV-B): multi-source BFS from each region
    * over the original road network, stopping at vertices of other regions;
    * connect region pairs not already connected.
    */
  def bEdges(net: RoadNetwork, regions: Seq[Clustering.Region],
             vertexRegion: Map[Int, Int], existing: Set[(Int, Int)]): Seq[(Int, Int)] = {
    val found = mutable.Set.empty[(Int, Int)]
    regions.foreach { r =>
      val stops = net.bfsUntil(r.members, v => vertexRegion.get(v).exists(_ != r.id))
      stops.foreach { v =>
        val rj = vertexRegion(v)
        val key = if (r.id < rj) (r.id, rj) else (rj, r.id)
        if (!existing.contains(key)) found += key
      }
    }
    found.toSeq.sorted
  }

  /** [[build]] of the collected trips; `spark` is unused and kept for
    * callers.
    */
  def build(spark: SparkSession, net: RoadNetwork, trips: Dataset[Trip],
            regions: Seq[Clustering.Region], params: Params = Params()): RegionGraphIndex =
    build(net, trips.collect().toSeq, regions, params)

  /** Assemble the full (pre-preference) region graph on the driver. */
  def build(net: RoadNetwork, trips: Seq[Trip], regions: Seq[Clustering.Region], params: Params): RegionGraphIndex = {
    val vertexRegion = Clustering.assignment(regions)
    val rows = trips.map(extract(_, vertexRegion.getOrElse(_, -1), params.maxSegmentsPerTrip))
    val byPath = Ordering.Implicits.seqOrdering[Seq, Int]
    val tPaths = topN(rows.flatMap(_._1).map(r => ((r.ri min r.rj, r.ri max r.rj), r.path)),
      params.topPathsPerTEdge, Ordering.by[Seq[Int], Int](-_.length).orElse(byPath))
    val inner = topN(rows.flatMap(_._2).map(r => (r.r, r.path)), params.topInnerPerRegion, byPath)
    val tcs = topN(rows.flatMap(_._3).map(r => (r.r, r.v)), params.maxTransferCenters, Ordering.Int)

    val infos = regions.map { r =>
      r.id -> regionInfo(net, r, tcs.getOrElse(r.id, Nil).map(_._1).toArray, params.topKRoadTypes)
    }.toMap
    val tEdgeMap = tPaths.map { case ((u, v), ps) => (u, v) -> RegionEdgeData(u, v, isT = true, pathRecs(ps), None) }
    val bKeys = bEdges(net, regions, vertexRegion, tEdgeMap.keySet)
    val bEdgeMap = bKeys.map { case (u, v) => (u, v) -> RegionEdgeData(u, v, isT = false, Nil, None) }.toMap
    new RegionGraphIndex(infos, vertexRegion, tEdgeMap ++ bEdgeMap, inner.view.mapValues(pathRecs).toMap)
  }

  /** Counts equal (key, value) rows and keeps each key's `n` most frequent
    * values with their counts, by count descending, then `tie`.
    */
  private def topN[K, V](rows: Seq[(K, V)], n: Int, tie: Ordering[V]): Map[K, Seq[(V, Int)]] = {
    val order = Ordering.by[(V, Int), Int](-_._2).orElse(Ordering.by[(V, Int), V](_._1)(tie))
    rows.groupBy(_._1).view.mapValues(_.groupMapReduce(_._2)(_ => 1)(_ + _).toArray.sorted(order).take(n).toSeq).toMap
  }

  /** `toList` boxes every stored path's vertices afresh, so no two stored
    * paths share vertex objects and the serialised model does not depend on
    * how the trips overlap.
    */
  private def pathRecs(ps: Seq[(Seq[Int], Int)]): Seq[PathRec] =
    ps.map { case (p, c) => PathRec(p.toList, c) }
}
