package repro.core

import org.scalacheck.rng.Seed
import org.scalacheck.{Gen, Prop, Test}
import repro.roadnet.RoadNetwork
import repro.traj.Trip
import repro.{SparkSpec, TestNets}

import scala.collection.mutable
import scala.util.Random

class RegionGraphSpec extends SparkSpec {
  import spark.implicits._

  // The motivating-example shape: a path A,J,X,Y,B3,B (ids 0..5) through
  // regions R1={0,1}, R6={2,3}, R2={4,5}; vertex 6 is in no region.
  private val regionOf = Map(0 -> 1, 1 -> 1, 2 -> 6, 3 -> 6, 4 -> 2, 5 -> 2)
  private def vr(v: Int): Int = regionOf.getOrElse(v, -1)

  test("segments compress consecutive same-region vertices") {
    val segs = RegionGraph.segments(Seq(0, 1, 2, 3, 4, 5), vr)
    assert(segs === Seq((1, 0, 1), (6, 2, 3), (2, 4, 5)))
  }

  test("segments skip non-region vertices") {
    val segs = RegionGraph.segments(Seq(0, 6, 2), vr)
    assert(segs === Seq((1, 0, 0), (6, 2, 2)))
  }

  test("a re-entered region produces two segments") {
    val segs = RegionGraph.segments(Seq(0, 2, 0, 1), vr)
    assert(segs === Seq((1, 0, 0), (6, 1, 1), (1, 2, 3)))
  }

  test("extract produces m(m-1)/2 T-edge rows for m distinct regions") {
    val t = Trip(0, 0, Seq(0, 1, 2, 3, 4, 5), 1)
    val (tRows, _, _) = RegionGraph.extract(t, vr, maxSegs = 12)
    assert(tRows.size === 3) // (R1,R6), (R1,R2), (R6,R2)
    assert(tRows.map(r => (r.ri, r.rj)).toSet === Set((1, 6), (1, 2), (6, 2)))
  }

  test("extract reproduces the paper's T1 example boundary paths") {
    // T1 = ⟨A,J,X,Y,B3,B⟩: (R1,R6)→⟨J,X⟩, (R1,R2)→⟨J,X,Y,B3⟩, (R6,R2)→⟨Y,B3⟩
    // The stored fragment is extended (enter R_i → leave R_j); the paper's
    // boundary path is its [leaveOff, enterOff] slice.
    val t = Trip(0, 0, Seq(0, 1, 2, 3, 4, 5), 1)
    val (tRows, _, _) = RegionGraph.extract(t, vr, 12)
    val byPair = tRows.map(r => (r.ri, r.rj) -> r.path.slice(r.leaveOff, r.enterOff + 1)).toMap
    assert(byPair((1, 6)) === Seq(1, 2))
    assert(byPair((1, 2)) === Seq(1, 2, 3, 4))
    assert(byPair((6, 2)) === Seq(3, 4))
  }

  test("extract's extended fragments span from entering R_i to leaving R_j") {
    val t = Trip(0, 0, Seq(0, 1, 2, 3, 4, 5), 1)
    val (tRows, _, _) = RegionGraph.extract(t, vr, 12)
    val byPair = tRows.map(r => (r.ri, r.rj) -> r.path).toMap
    assert(byPair((1, 6)) === Seq(0, 1, 2, 3))       // A..Y
    assert(byPair((1, 2)) === Seq(0, 1, 2, 3, 4, 5)) // the whole trip
    assert(byPair((6, 2)) === Seq(2, 3, 4, 5))       // X..B
  }

  test("extract records inner-region paths (paper: ⟨A,J⟩ in R1)") {
    val t = Trip(0, 0, Seq(0, 1, 2, 3, 4, 5), 1)
    val (_, inner, _) = RegionGraph.extract(t, vr, 12)
    assert(inner.map(i => (i.r, i.path)).toSet ===
      Set((1, Seq(0, 1)), (6, Seq(2, 3)), (2, Seq(4, 5))))
  }

  test("extract records transfer centers at segment boundaries") {
    val t = Trip(0, 0, Seq(0, 1, 2, 3, 4, 5), 1)
    val (_, _, tcs) = RegionGraph.extract(t, vr, 12)
    val byRegion = tcs.groupBy(_.r).view.mapValues(_.map(_.v).toSet).toMap
    assert(byRegion(1) === Set(0, 1))
    assert(byRegion(6) === Set(2, 3))
    assert(byRegion(2) === Set(4, 5))
  }

  test("maxSegs caps the quadratic pair explosion") {
    val t = Trip(0, 0, Seq(0, 1, 2, 3, 4, 5), 1)
    val (tRows, _, _) = RegionGraph.extract(t, vr, maxSegs = 2)
    assert(tRows.size === 1)
  }

  // A 5×2 ladder: rails 0—1—2—3—4 and 5—6—7—8—9 joined by rungs i—(i+5).
  private val ladder = TestNets.custom(
    Seq.tabulate(10)(i => ((i % 5).toDouble, (i / 5).toDouble)),
    Seq.tabulate(4)(i => (i, i + 1, 1.0, 6)) ++ Seq.tabulate(4)(i => (i + 5, i + 6, 1.0, 6)) ++
      Seq.tabulate(5)(i => (i, i + 5, 1.0, 6)))

  /** The region graph of `paths` as trips, with region i = `regions(i)`. */
  private def graphOf(paths: Seq[Seq[Int]], regions: Seq[Set[Int]],
                      params: RegionGraph.Params = RegionGraph.Params()): RegionGraphIndex = {
    val trips = paths.zipWithIndex.map { case (p, i) => Trip(i, 0, p, 1.0) }
    RegionGraph.build(spark, ladder, spark.createDataset(trips),
      regions.zipWithIndex.map { case (m, i) => Clustering.Region(i, m) }, params)
  }

  private val leftRight = Seq(Set(0, 5), Set(4, 9))
  private val top = Seq(0, 1, 2, 3, 4)
  private val bottom = Seq(5, 6, 7, 8, 9)

  test("T-edge paths are ordered by trip count, both orientations under one key") {
    val g = graphOf(Seq(bottom, top, top.reverse, top, top.reverse, top), leftRight)
    assert(g.edges.values.filter(_.isT).map(_.key).toSeq === Seq((0, 1)))
    val e = g.edges((0, 1))
    assert((e.ri, e.rj) === ((0, 1)))
    assert(e.paths === Seq(PathRec(top, 3), PathRec(top.reverse, 2), PathRec(bottom, 1)))
  }

  test("equal T-edge counts: the longer path first, then lexicographic order") {
    val viaRungLeft = Seq(0, 5, 6, 7, 8, 9)
    val viaRungRight = Seq(0, 1, 2, 3, 4, 9)
    val g = graphOf(Seq(bottom, top, viaRungLeft, viaRungRight), leftRight)
    assert(g.edges((0, 1)).paths.map(_.verts) === Seq(viaRungRight, viaRungLeft, top, bottom))
    assert(g.edges((0, 1)).paths.map(_.count).forall(_ == 1))
  }

  test("equal inner-path counts: lexicographic, a prefix before its extension") {
    val g = graphOf(Seq(Seq(0, 1, 2), Seq(2, 1), Seq(1, 0), Seq(0, 1), Seq(1, 0)), Seq(Set(0, 1, 2)))
    assert(g.innerPaths(0) ===
      Seq(PathRec(Seq(1, 0), 2), PathRec(Seq(0, 1), 1), PathRec(Seq(0, 1, 2), 1), PathRec(Seq(2, 1), 1)))
    assert(g.edges.isEmpty)
  }

  test("transfer centers are ordered by trip count, then by vertex id") {
    val g = graphOf(Seq(Seq(2, 3, 4), Seq(1, 2, 3, 4), Seq(0, 1, 2, 3, 4), Seq(1, 0)),
      Seq(Set(0, 1, 2), Set(4, 9), Set(7)))
    // vertex 2 ends three segments; 0 and 1 tie at two
    assert(g.regions(0).transferCenters.toSeq === Seq(2, 0, 1))
    assert(g.regions(1).transferCenters.toSeq === Seq(4))
    assert(g.regions(2).transferCenters.isEmpty)
  }

  test("the top-N limits cut each ordered list") {
    val paths = Seq(Seq(2, 3, 4), Seq(1, 2, 3, 4), Seq(0, 1, 2, 3, 4), Seq(1, 0))
    val regions = Seq(Set(0, 1, 2), Set(4, 9))
    val full = graphOf(paths, regions)
    assert(full.edges((0, 1)).paths.map(_.verts) === Seq(Seq(0, 1, 2, 3, 4), Seq(1, 2, 3, 4), Seq(2, 3, 4)))
    assert(full.innerPaths(0).map(_.verts) === Seq(Seq(0, 1, 2), Seq(1, 0), Seq(1, 2)))
    val cut = graphOf(paths, regions,
      RegionGraph.Params(topPathsPerTEdge = 2, topInnerPerRegion = 1, maxTransferCenters = 1))
    assert(cut.edges((0, 1)).paths === full.edges((0, 1)).paths.take(2))
    assert(cut.innerPaths(0) === full.innerPaths(0).take(1))
    assert(cut.regions(0).transferCenters.toSeq === Seq(2))
  }

  test("regionInfo computes centroid and top road types") {
    val net = TestNets.custom(
      Seq((0, 0), (2, 0), (1, 2)),
      Seq((0, 1, 2.0, 1), (1, 2, 1.5, 3), (0, 2, 1.0, 3)))
    val info = RegionGraph.regionInfo(net, Clustering.Region(0, Set(0, 1, 2)), Array(0), topK = 2)
    assert(math.abs(info.cx - 1.0) < 1e-9)
    assert(info.topRts === Seq(3, 1)) // rt3 total incident length 5 > rt1's 4
  }

  test("the index rejects a negative or repeated region id, a repeated edge key, an edge to an unknown region and inner paths of an unknown region") {
    val net = TestNets.line(6)
    def info(id: Int, vs: Int*) = RegionGraph.regionInfo(net, Clustering.Region(id, vs.toSet), vs.toArray, 2)
    def edge(a: Int, b: Int) = RegionEdgeData(a, b, isT = false, Nil, None)
    val regions = Seq(info(0, 0, 1), info(1, 3, 4))
    val ok = new RegionGraphIndex(regions, Seq(edge(1, 0)), Seq(Nil, Seq(PathRec(Seq(3, 4), 1))))
    assert(ok.nRegions === 2 && ok.nEdges === 1 && ok.regionOf(4) === 1 && ok.innerPaths(1).size === 1)
    def rejects(why: String)(index: => RegionGraphIndex): Unit =
      assert(intercept[IllegalArgumentException](index).getMessage === s"requirement failed: $why")
    // a region's id must be its position
    for (ids <- Seq(Seq(0, 2), Seq(0, 1, 1), Seq(0, 1, -1), Seq(-1, 0), Seq(1, 0)))
      rejects("a region's id is not its position")(new RegionGraphIndex(ids.map(info(_, 5)), Nil, Nil))
    rejects("an edge key is repeated")(new RegionGraphIndex(regions, Seq(edge(0, 1), edge(1, 0)), Nil))
    rejects("an edge joins an unknown region")(new RegionGraphIndex(regions, Seq(edge(0, 2)), Nil))
    rejects("an edge joins an unknown region")(new RegionGraphIndex(regions, Seq(edge(-1, 1)), Nil))
    rejects("inner paths of an unknown region")(new RegionGraphIndex(regions, Nil, Seq(Nil, Nil, Seq(PathRec(Seq(0, 1), 1)))))
  }

  test("the path store returns every stored path, its positions and slices, in at most 4 bytes per near vertex (scalacheck)") {
    var descending, repeated, single, empty, near = 0
    val vertex = Gen.frequency(3 -> Gen.choose(0, Int.MaxValue), 1 -> Gen.choose(0, 40), 1 -> Gen.oneOf(0, Int.MaxValue))
    // a fresh vertex anywhere, or a road-like hop from the previous one
    val step = Gen.frequency(2 -> Gen.choose(-200, 200).map(Left(_)), 1 -> vertex.map(Right(_)))
    val path = for {
      n <- Gen.frequency(1 -> Gen.const(0), 1 -> Gen.const(1), 4 -> Gen.choose(2, 30))
      first <- vertex
      steps <- Gen.listOfN(n, step)
      count <- Gen.choose(0, 1000)
    } yield PathRec(steps.scanLeft(first)((v, s) =>
      s.fold(d => math.min(Int.MaxValue.toLong, math.max(0L, v.toLong + d)).toInt, identity)).take(n), count)
    val paths = Gen.choose(0, 4).flatMap(Gen.listOfN(_, path))
    val cases = for {
      nRows <- Gen.choose(0, 4)
      rowPaths <- Gen.listOfN(nRows, paths)
      inner <- Gen.listOfN(nRows + 1, paths)
    } yield (rowPaths, inner)
    val prop = Prop.forAllNoShrink(cases) { case (rowPaths, innerPaths) =>
      val infos = innerPaths.indices.map(id => RegionInfo(id, Array.empty, 0.0, 0.0, Nil, Array.empty))
      val rows = rowPaths.zipWithIndex.map { case (ps, e) => RegionEdgeData(0, e + 1, isT = true, ps, None) }
      val index = new RegionGraphIndex(infos, rows, innerPaths)
      // each stored path's number with the record it was built from
      val stored = rows.indices.flatMap(e => index.edgePaths(e).zip(rows(e).paths)) ++
        innerPaths.indices.flatMap(i => index.innerPathsOf(i).zip(innerPaths(i)))
      index.edgeRows.map(_.paths) == rows.map(_.paths) &&
      index.innerPaths == innerPaths &&
      stored.map(_._1) == (0 until index.pathCount.length) &&
      stored.forall { case (p, rec) =>
        val ref = rec.verts.toArray
        val diffs = ref.indices.map(k => ref(k).toLong - (if (k == 0) 0L else ref(k - 1).toLong))
        val bytes = index.pathOff(p + 1) - index.pathOff(p)
        if (diffs.exists(_ < -(1L << 27))) descending += 1
        if (ref.distinct.length < ref.length) repeated += 1
        if (ref.length == 1) single += 1
        if (ref.isEmpty) empty += 1
        val bounded = diffs.forall(d => math.abs(d) < (1L << 27))
        if (bounded && ref.nonEmpty) near += 1
        val probes = ref.toSeq ++ Seq(-1, 0, 1, Int.MaxValue) ++ ref.map(_ + 1)
        val cuts = Seq(-1, 0, 1, ref.length / 2, ref.length - 1, ref.length, ref.length + 1)
        probes.forall(v => index.indexIn(p, v) == ref.indexOf(v)) &&
        cuts.forall(i => cuts.forall(j => index.slice(p, i, j) == ref.slice(i, j).toVector)) &&
        index.pathCount(p) == rec.count &&
        (!bounded || bytes <= 4 * ref.length) && bytes <= 5 * ref.length
      }
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(300).withInitialSeed(Seed(29L)), prop)
    assert(result.passed, result.status)
    assert(descending > 0 && repeated > 0 && single > 0 && empty > 0 && near > 0,
      s"descending=$descending repeated=$repeated single=$single empty=$empty near=$near")
  }

  test("bEdges connect isolated regions via BFS without crossing regions") {
    // line 0..7; regions {0,1} and {6,7}; middle uncovered
    val net = TestNets.line(8)
    val regions = Seq(Clustering.Region(0, Set(0, 1)), Clustering.Region(1, Set(6, 7)))
    val b = RegionGraph.bEdges(net, RegionGraph.vertexRegions(net.n, regions), existing = Set.empty)
    assert(b === Seq((0, 1)))
  }

  test("bEdges do not duplicate existing T-edges") {
    val net = TestNets.line(8)
    val regions = Seq(Clustering.Region(0, Set(0, 1)), Clustering.Region(1, Set(6, 7)))
    assert(RegionGraph.bEdges(net, RegionGraph.vertexRegions(net.n, regions), existing = Set((0, 1))).isEmpty)
  }

  test("bEdges stop at the first region encountered (no tunnelling)") {
    // regions A={0,1}, B={3,4}, C={6,7} on a line: A reaches B but not C
    val net = TestNets.line(8)
    val regions = Seq(
      Clustering.Region(0, Set(0, 1)), Clustering.Region(1, Set(3, 4)), Clustering.Region(2, Set(6, 7)))
    val b = RegionGraph.bEdges(net, RegionGraph.vertexRegions(net.n, regions), Set.empty)
    assert(b.toSet === Set((0, 1), (1, 2)))
    assert(!b.contains((0, 2)))
  }

  /** Each member's region id. */
  private def regionOf(regions: Seq[Clustering.Region]): Map[Int, Int] = regions.flatMap(r => r.members.map(_ -> r.id)).toMap

  /** B-edges as one search per region found them. */
  private def refBEdges(net: RoadNetwork, regions: Seq[Clustering.Region], existing: Set[(Int, Int)]): Seq[(Int, Int)] = {
    val vertexRegion = regionOf(regions)
    val found = mutable.Set.empty[(Int, Int)]
    regions.foreach { r =>
      TestNets.bfsUntil(net, r.members, v => vertexRegion.get(v).exists(_ != r.id)).foreach { v =>
        val rj = vertexRegion(v)
        val key = if (r.id < rj) (r.id, rj) else (rj, r.id)
        if (!existing.contains(key)) found += key
      }
    }
    found.toSeq.sorted
  }

  test("bEdges equals the per-region BFS on random small networks (scalacheck)") {
    var disconnected, single, chained = 0
    val cases = for {
      seed <- Gen.choose(0L, Long.MaxValue)
      net = TestNets.tieNet(new Random(seed))
      k <- Gen.choose(1, 5)
      // a vertex is in no region a third of the time; region ids are not 0..k-1
      of <- Gen.listOfN(net.n, Gen.frequency(1 -> Gen.const(-1), 2 -> Gen.choose(0, k - 1)))
      existing <- Gen.someOf(for (a <- 0 until k; b <- a + 1 until k) yield (3 * a + 1, 3 * b + 1))
    } yield (net, (0 until k).map(i => Clustering.Region(3 * i + 1, of.indices.filter(of(_) == i).toSet))
      .filter(_.members.nonEmpty), existing.toSet)
    val prop = Prop.forAllNoShrink(cases) { case (net, regions, existing) =>
      if (TestNets.reachableFrom(net, 0).size < net.n) disconnected += 1
      if (regions.exists(_.members.size == 1)) single += 1
      val got = RegionGraph.bEdges(net, RegionGraph.vertexRegions(net.n, regions), existing)
      val vr = regionOf(regions)
      val direct = net.edges.flatMap(e => for (a <- vr.get(e.src); b <- vr.get(e.dst)) yield (a min b, a max b)).toSet
      if (got.exists(!direct.contains(_))) chained += 1
      got == refBEdges(net, regions, existing)
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(500).withInitialSeed(Seed(17L)), prop)
    assert(result.passed, result.status)
    assert(disconnected > 0 && single > 0 && chained > 0, s"disconnected=$disconnected single=$single chained=$chained")
  }

  test("end-to-end build yields a connected region graph") {
    val net = TestNets.smallGrid(14, 10)
    val cfg = repro.traj.TrajectoryGen.Config(nTrips = 400, nDrivers = 8, nZones = 4,
      zoneRadiusKm = 0.8, seed = 31L)
    val trips = repro.traj.TrajectoryGen.generateLocal(net, cfg)
    val tripDs = spark.createDataset(trips)
    val clusterEdges = TrajectoryGraph.clusterInput(tripDs, net)
    val regions = Clustering.cluster(clusterEdges)
    val index = RegionGraph.build(spark, net, tripDs, regions)
    assert(index.regions.nonEmpty)
    assert(index.isConnected, "B-edges must make the region graph connected")
    assert(index.edges.values.exists(_.isT), "training data must produce T-edges")
    index.edges.values.filter(_.isT).foreach { e =>
      assert(e.paths.nonEmpty, s"T-edge ${e.key} must carry paths")
      e.paths.foreach(p => assert(p.count >= 1))
    }
    // every vertex-region assignment points to an existing region
    index.vertexRegion.values.foreach(r => assert(index.regions.indices.contains(r)))
  }
}
