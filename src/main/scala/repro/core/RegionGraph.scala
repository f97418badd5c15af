package repro.core

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.roadnet.{Preference, RoadNetwork}
import repro.traj.Trip
import repro.util.CsrGraph

import scala.collection.immutable.{ArraySeq, VectorBuilder}
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
  * and their stored paths, and inner-region paths, held in primitive arrays.
  *
  * A region's id is its position. The index is built from the regions in
  * id order, so region i has id i as [[Clustering.cluster]] numbers them,
  * from the edge rows, and from the regions' inner paths by id (a region
  * past the end of `inner` has none). It rejects a region whose id is not
  * its position, a repeated edge key, an edge to an unknown region and inner
  * paths of an unknown region. The serialised fields are arrays only:
  *  - the regions by id (centroid `cx`/`cy`), with three concatenated lists
  *    and their offsets (region i's entries are positions off(i) until
  *    off(i + 1)): top road types, members and transfer centres;
  *  - one row per region edge, in the order given: endpoints, isT and a
  *    preference code (-1 for none, else [[Preference.code]]);
  *  - every stored path as a byte range of one array (`pathOff`,
  *    `pathBytes`), with its trajectory count, in path groups: group e < E
  *    holds edge row e's paths and group E + i region i's inner paths, the
  *    paths `groupOff(g)` until `groupOff(g + 1)`. A path's bytes are its
  *    vertices as zigzag varints of the difference from the previous
  *    vertex, the first from 0, in wrapping `Int` arithmetic: a difference
  *    under 2^27 in magnitude takes at most 4 bytes, a road hop between
  *    nearby ids 1 or 2. Only this class and its companion know the
  *    format: [[indexIn]], [[slice]] and the views decode it.
  *
  * Derived on first use and never serialised: the vertex → region array
  * (from the members), the region adjacency as CSR (each region's
  * neighbours in edge-row order, which fixes the region search's ties,
  * with the edge row and the centroid distance), the search kernel over it
  * (`graph`, the [[repro.util.CsrGraph]] that also runs every road search),
  * and the views: `regions` and `innerPaths` are `IndexedSeq`s by id,
  * `vertexRegion` and `edges` maps. A map of at most four entries iterates
  * in the order it was built, a larger one in hash order (the order of an
  * immutable hash map depends on its keys alone); `edgeRows` reads the rows
  * in row order. The router ([[L2RRouter]]) reads the arrays and the stored
  * paths through [[indexIn]] and [[slice]].
  */
@SerialVersionUID(3L)
final class RegionGraphIndex(infos: Seq[RegionInfo], rows: Seq[RegionEdgeData], inner: Seq[Seq[PathRec]])
    extends Serializable {
  import RegionGraphIndex.packPaths

  /** The regions by id; read while constructing only. */
  @transient private[this] val byId: Array[RegionInfo] = infos.toArray

  require(byId.indices.forall(i => byId(i).id == i), "a region's id is not its position")
  require(rows.map(_.key).distinct.size == rows.size, "an edge key is repeated")
  require(rows.forall(e => math.min(e.ri, e.rj) >= 0 && math.max(e.ri, e.rj) < byId.length),
    "an edge joins an unknown region")
  require(inner.size <= byId.length, "inner paths of an unknown region")

  private val cx: Array[Double] = byId.map(_.cx)
  private val cy: Array[Double] = byId.map(_.cy)
  private val topRtOff: Array[Int] = byId.map(_.topRts.length).scanLeft(0)(_ + _)
  private val topRt: Array[Int] = byId.flatMap(_.topRts)
  private val memberOff: Array[Int] = byId.map(_.members.length).scanLeft(0)(_ + _)
  private val member: Array[Int] = byId.flatMap(_.members)
  private val tcOff: Array[Int] = byId.map(_.transferCenters.length).scanLeft(0)(_ + _)
  private val tc: Array[Int] = byId.flatMap(_.transferCenters)
  private[core] val edgeRi: Array[Int] = rows.map(_.ri).toArray
  private[core] val edgeRj: Array[Int] = rows.map(_.rj).toArray
  private val edgeIsT: Array[Boolean] = rows.map(_.isT).toArray
  private[core] val edgePref: Array[Byte] = rows.map(_.pref.fold(-1)(Preference.code).toByte).toArray
  /** The stored paths, packed in one pass; read while constructing only. */
  @transient private[this] val packed: RegionGraphIndex.Packed = packPaths(rows, inner, byId.length)
  private[core] val groupOff: Array[Int] = packed.groupOff
  /** Path p's bytes are positions pathOff(p) until pathOff(p + 1) (tests read the sizes). */
  private[core] val pathOff: Array[Int] = packed.pathOff
  private val pathBytes: Array[Byte] = packed.bytes
  private[core] val pathCount: Array[Int] = packed.count

  def nRegions: Int = cx.length
  def nEdges: Int = edgeRi.length
  def nTEdges: Int = edgeIsT.count(identity)

  /** Each vertex's region, -1 for none; a member of several regions is in
    * the one with the largest id, and vertices past the last member are in
    * none.
    */
  @transient private lazy val regionByVertex: Array[Int] = {
    val out = Array.fill(if (member.isEmpty) 0 else member.max + 1)(-1)
    for (r <- 0 until nRegions; p <- memberOff(r) until memberOff(r + 1)) out(member(p)) = r
    out
  }

  /** The region of vertex `v`, or -1 when `v` is in no region. */
  def regionOf(v: Int): Int = {
    val vr = regionByVertex
    if (v >= 0 && v < vr.length) vr(v) else -1
  }

  /** The region adjacency: region r's neighbours are `nbr` at positions
    * off(r) until off(r + 1), joined by edge row `row`, whose centroids lie
    * `dist` km apart.
    */
  @transient private[core] lazy val adjacency: RegionGraphIndex.Adjacency = {
    val deg = new Array[Int](nRegions)
    edgeRi.indices.foreach { e => deg(edgeRi(e)) += 1; deg(edgeRj(e)) += 1 }
    val off = deg.scanLeft(0)(_ + _)
    val next = off.clone()
    val nbr = new Array[Int](off(nRegions)); val row = new Array[Int](off(nRegions))
    val dist = new Array[Double](off(nRegions))
    def add(u: Int, v: Int, e: Int): Unit = {
      val p = next(u); next(u) += 1
      nbr(p) = v; row(p) = e; dist(p) = math.hypot(cx(u) - cx(v), cy(u) - cy(v))
    }
    edgeRi.indices.foreach { e => add(edgeRi(e), edgeRj(e), e); add(edgeRj(e), edgeRi(e), e) }
    new RegionGraphIndex.Adjacency(off, nbr, row, dist)
  }

  /** The search kernel over the region adjacency, which serves the road
    * network too; regions have no road type, so every search follows every
    * region edge (slave road type -1).
    */
  @transient private[core] lazy val graph: CsrGraph =
    new CsrGraph(adjacency.off, adjacency.nbr, new Array[Byte](adjacency.nbr.length))

  /** The stored paths of edge row `e`. */
  private[core] def edgePaths(e: Int): Range = groupOff(e) until groupOff(e + 1)

  /** The inner paths of region `r`. */
  private[core] def innerPathsOf(r: Int): Range = groupOff(nEdges + r) until groupOff(nEdges + r + 1)

  /** The edge row between regions `a` and `b`, or -1. */
  private[core] def edgeRow(a: Int, b: Int): Int = {
    val adj = adjacency
    var p = adj.off(a)
    while (p < adj.off(a + 1)) { if (adj.nbr(p) == b) return adj.row(p); p += 1 }
    -1
  }

  /** Is the region graph connected? (guaranteed by B-edge construction when
    * the road network is connected) One reach pass of the search kernel
    * from region 0 to every region.
    */
  def isConnected: Boolean =
    nRegions == 0 || graph.reach(0, Array.range(0, nRegions), -1).forall(identity)

  private def reader(p: Int) = new RegionGraphIndex.PathReader(pathBytes, pathOff(p), pathOff(p + 1))

  /** Position of the first `v` in stored path `p`, from its start, or -1. */
  private[core] def indexIn(p: Int, v: Int): Int = {
    val r = reader(p)
    var k = 0
    while (r.hasNext) { if (r.next() == v) return k; k += 1 }
    -1
  }

  /** The vertices of stored path `p` at positions `from` until `until`, as
    * `slice` clamps them.
    */
  private[core] def slice(p: Int, from: Int, until: Int): Vector[Int] = {
    val r = reader(p)
    val out = new VectorBuilder[Int]
    var k = 0
    while (k < until && r.hasNext) { val v = r.next(); if (k >= from) out += v; k += 1 }
    out.result()
  }

  // ------------------------------------------------- views, rebuilt on demand

  private def ints(off: Array[Int], values: Array[Int], i: Int): Array[Int] =
    java.util.Arrays.copyOfRange(values, off(i), off(i + 1))

  /** Stored paths `ps` in the collection classes the map-based index held:
    * learning's Eq. 1 scoring ran measurably slower in a fresh JVM when the
    * vertices were array-backed.
    */
  private def pathRecs(ps: Range): Seq[PathRec] = ps.map { p =>
    val r = reader(p)
    val verts = mutable.ListBuffer.empty[Int]
    while (r.hasNext) verts += r.next()
    PathRec(verts.toList, pathCount(p))
  }.to(ArraySeq)

  /** The regions, by id. */
  @transient lazy val regions: IndexedSeq[RegionInfo] = IndexedSeq.tabulate(nRegions) { r =>
    RegionInfo(r, ints(memberOff, member, r), cx(r), cy(r), ints(topRtOff, topRt, r).toList, ints(tcOff, tc, r))
  }

  /** The vertex → region lookup of every region member. */
  @transient lazy val vertexRegion: Map[Int, Int] =
    (0 until nRegions).flatMap(r => (memberOff(r) until memberOff(r + 1)).map(member(_) -> r)).toMap

  /** The edge rows, in row order. */
  private[core] def edgeRows: IndexedSeq[RegionEdgeData] = edgeRi.indices.map { e =>
    RegionEdgeData(edgeRi(e), edgeRj(e), edgeIsT(e), pathRecs(edgePaths(e)),
      if (edgePref(e) < 0) None else Some(Preference.fromCode(edgePref(e))))
  }

  /** The region edges by their (min, max) key. */
  @transient lazy val edges: Map[(Int, Int), RegionEdgeData] = edgeRows.map(e => e.key -> e).toMap

  /** The inner-region paths, by region id (empty for a region with none). */
  @transient lazy val innerPaths: IndexedSeq[Seq[PathRec]] =
    IndexedSeq.tabulate(nRegions)(r => pathRecs(innerPathsOf(r)))
}

object RegionGraphIndex {

  /** Decodes the vertices of one stored path, bytes `from` until `until`
    * of `bytes`, one [[next]] at a time; [[packPaths]] wrote them.
    */
  private final class PathReader(bytes: Array[Byte], from: Int, until: Int) {
    private[this] var i = from
    private[this] var v = 0
    def hasNext: Boolean = i < until
    def next(): Int = {
      var b = bytes(i); i += 1
      var z = 0; var shift = 0
      while (b < 0) { z |= (b & 0x7f) << shift; shift += 7; b = bytes(i); i += 1 }
      z |= b << shift
      v += (z >>> 1) ^ -(z & 1)
      v
    }
  }

  /** The stored paths of [[RegionGraphIndex]], packed: group and byte
    * offsets, the bytes, and each path's trajectory count.
    */
  private final class Packed(val groupOff: Array[Int], val pathOff: Array[Int], val bytes: Array[Byte], val count: Array[Int])

  /** Packs the path groups, each edge row's paths and then each of the
    * `nRegions` regions' inner paths, in one pass. (Here, not in the class,
    * so that `inner` is read by no closure there and stays a constructor
    * argument, not a serialised field.)
    */
  private def packPaths(rows: Seq[RegionEdgeData], inner: Seq[Seq[PathRec]], nRegions: Int): Packed = {
    val groupOff = new mutable.ArrayBuilder.ofInt; val pathOff = new mutable.ArrayBuilder.ofInt
    val bytes = new mutable.ArrayBuilder.ofByte; val count = new mutable.ArrayBuilder.ofInt
    groupOff += 0; pathOff += 0
    for (group <- rows.iterator.map(_.paths) ++ inner.iterator.padTo(nRegions, Nil)) {
      for (path <- group) {
        var prev = 0
        for (v <- path.verts) {
          val d = v - prev
          var z = (d << 1) ^ (d >> 31) // zigzag: small magnitudes, either sign, to small codes
          while ((z & ~0x7f) != 0) { bytes += ((z & 0x7f) | 0x80).toByte; z >>>= 7 }
          bytes += z.toByte
          prev = v
        }
        pathOff += bytes.length; count += path.count
      }
      groupOff += count.length
    }
    new Packed(groupOff.result(), pathOff.result(), bytes.result(), count.result())
  }

  /** See [[RegionGraphIndex.adjacency]]. */
  private[core] final class Adjacency(val off: Array[Int], val nbr: Array[Int], val row: Array[Int], val dist: Array[Double])
}

/** Builds the region graph from the clustered regions and the trip set
  * (Section IV-B). One driver-side pass extracts every trip's region
  * segments and keeps the most frequent T-edge paths, inner-region paths
  * and transfer centers; the B-edge pass runs on the driver over the full
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

  /** Each vertex's region id, or -1 for none. */
  def vertexRegions(n: Int, regions: Seq[Clustering.Region]): Array[Int] = {
    val out = Array.fill(n)(-1)
    regions.foreach(r => r.members.foreach(out(_) = r.id))
    out
  }

  /** B-edge construction (Section IV-B): region pairs joined over the
    * original road network, ignoring edge direction, by a road edge or by
    * a chain of vertices in no region, that are not already T-edges; the
    * keys come sorted. These are the pairs a breadth-first search from each
    * region's members finds when it stops at other regions' vertices, found
    * in one union-find pass over the road edges: an edge between two
    * regions gives a pair, an edge between two region-less vertices joins
    * their sets, and an edge between a region and a region-less vertex is a
    * contact. Each set then pairs all the regions it has contacts with.
    * `vertexRegion` is [[vertexRegions]].
    */
  def bEdges(net: RoadNetwork, vertexRegion: Array[Int], existing: Set[(Int, Int)]): Seq[(Int, Int)] = {
    val found = mutable.Set.empty[(Int, Int)]
    def pair(a: Int, b: Int): Unit = if (a != b) {
      val key = if (a < b) (a, b) else (b, a)
      if (!existing.contains(key)) found += key
    }
    val parent = Array.tabulate(net.n)(identity)
    def find(v: Int): Int = {
      var u = v
      while (parent(u) != u) { parent(u) = parent(parent(u)); u = parent(u) }
      u
    }
    val contacts = mutable.ArrayBuffer.empty[(Int, Int)] // (region-less vertex, region)
    net.edges.foreach { e =>
      val a = vertexRegion(e.src); val b = vertexRegion(e.dst)
      if (a >= 0 && b >= 0) pair(a, b)
      else if (a < 0 && b < 0) parent(find(e.src)) = find(e.dst)
      else if (a < 0) contacts += ((e.src, b))
      else contacts += ((e.dst, a))
    }
    contacts.groupMap(c => find(c._1))(_._2).values.foreach { touched =>
      val rs = touched.distinct.sorted
      for (i <- rs.indices; j <- i + 1 until rs.length) pair(rs(i), rs(j))
    }
    found.toSeq.sorted
  }

  /** [[build]] of the collected trips; kept for l2rbench until the
    * benchmark PR; `spark` is unused.
    */
  def build(spark: SparkSession, net: RoadNetwork, trips: Dataset[Trip],
            regions: Seq[Clustering.Region], params: Params = Params()): RegionGraphIndex =
    build(net, trips.collect().toSeq, regions, params)

  /** Assemble the full (pre-preference) region graph on the driver;
    * `regions` come in id order, region i with id i, as
    * [[Clustering.cluster]] numbers them.
    */
  def build(net: RoadNetwork, trips: Seq[Trip], regions: Seq[Clustering.Region], params: Params): RegionGraphIndex = {
    val vertexRegion = vertexRegions(net.n, regions)
    val rows = trips.map(extract(_, vertexRegion(_), params.maxSegmentsPerTrip))
    val byPath = Ordering.Implicits.seqOrdering[Seq, Int]
    val tPaths = topN(rows.flatMap(_._1).map(r => ((r.ri min r.rj, r.ri max r.rj), r.path)),
      params.topPathsPerTEdge, Ordering.by[Seq[Int], Int](-_.length).orElse(byPath))
    val inner = topN(rows.flatMap(_._2).map(r => (r.r, r.path)), params.topInnerPerRegion, byPath)
    val tcs = topN(rows.flatMap(_._3).map(r => (r.r, r.v)), params.maxTransferCenters, Ordering.Int)

    val infos = regions.map(r => regionInfo(net, r, tcs.getOrElse(r.id, Nil).map(_._1).toArray, params.topKRoadTypes))
    val tEdgeMap = tPaths.map { case ((u, v), ps) => (u, v) -> RegionEdgeData(u, v, isT = true, pathRecs(ps), None) }
    val bKeys = bEdges(net, vertexRegion, tEdgeMap.keySet)
    val bEdgeMap = bKeys.map { case (u, v) => (u, v) -> RegionEdgeData(u, v, isT = false, Nil, None) }.toMap
    val innerByRegion = regions.map(r => pathRecs(inner.getOrElse(r.id, Nil)))
    new RegionGraphIndex(infos, (tEdgeMap ++ bEdgeMap).values.toSeq, innerByRegion)
  }

  /** Counts equal (key, value) rows and keeps each key's `n` most frequent
    * values with their counts, by count descending, then `tie`.
    */
  private def topN[K, V](rows: Seq[(K, V)], n: Int, tie: Ordering[V]): Map[K, Seq[(V, Int)]] = {
    val order = Ordering.by[(V, Int), Int](-_._2).orElse(Ordering.by[(V, Int), V](_._1)(tie))
    rows.groupBy(_._1).view.mapValues(_.groupMapReduce(_._2)(_ => 1)(_ + _).toArray.sorted(order).take(n).toSeq).toMap
  }

  private def pathRecs(ps: Seq[(Seq[Int], Int)]): Seq[PathRec] =
    ps.map { case (p, c) => PathRec(p, c) }
}
