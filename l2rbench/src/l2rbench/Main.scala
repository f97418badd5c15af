package l2rbench

import java.nio.file.{Files, Path, Paths}

import org.apache.spark.sql.SparkSession
import repro.baselines.{Baselines, Dom, Router, TripRouter}
import repro.core._
import repro.eval.{Evaluator, PathSim, Scenario}
import repro.roadnet.RoadNetwork

import scala.collection.mutable

/** The benchmark's entry point: one run of one workload.
  *
  * `--trace 0` measures the end-to-end metrics with nothing inside the
  * program observed. `--trace 1` repeats the fit stage by stage through the
  * public stage functions, with spans, a Spark listener and GC counters
  * around each call, and reports the per-layer metrics.
  */
object Main {

  final case class Args(workload: Workload, seed: Long, seconds: Int, trace: Boolean, workDir: Path)

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"--$k is required"))
    Args(Workload.byName(need("workload")), need("seed").toLong, need("seconds").toInt,
      need("trace") == "1", Paths.get(kv.getOrElse("work-dir", ".bench_build/l2rbench")).toAbsolutePath)
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val report = new Report
    val bench = new Bench(args, report)
    val code = try {
      if (args.trace) bench.traced() else bench.untraced()
      0
    } catch {
      case e: Throwable => e.printStackTrace(); 1
    } finally bench.close()
    if (code == 0) report.print()
    System.out.flush()
    sys.exit(code)
  }
}

/** One query's outcome in the validation pass. */
final case class QueryResult(valid: Boolean, sim1: Double, sim2: Double, km: Double, category: String)

final class Bench(args: Main.Args, report: Report) {
  import Bench._

  private val w = args.workload
  private val nproc = Runtime.getRuntime.availableProcessors
  private var spark: SparkSession = _

  def close(): Unit = if (spark != null) { spark.stop(); spark = null }

  private def startSpark(): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$nproc]")
      .appName("l2rbench")
      .config("spark.ui.enabled", "false")
      .config("spark.local.dir", args.workDir.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", args.workDir.resolve("spark-warehouse").toString)
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  /** Everything a run needs before the fit: a Spark session, the workload's
    * trips and the fitted baselines.
    */
  private final case class Setup(in: Inputs, baselines: Seq[Router], generateSeconds: Double)

  private def setUp(): Setup = {
    close()
    spark = startSpark()
    val (in, gen) = timed(Streams.build(spark, w, args.seed))
    val dom = Dom.fit(in.net, in.train)
    val trip = TripRouter.fit(in.net, in.train)
    val baselines = Seq(
      new Baselines.Shortest(in.net), new Baselines.Fastest(in.net),
      new TripRouter.Trip_(in.net, trip), new Baselines.SimGoogle(in.net), new Dom.DomRouter(in.net, dom))
    Setup(in, baselines, gen)
  }

  private def checkStream(su: Setup): Unit = {
    val bad = Streams.violations(spark, w, su.in)
    report.check("query stream", bad.isEmpty, bad.mkString("; "))
  }

  private def fit(in: Inputs): (Option[L2RPipeline.Model], Double) = {
    val ds = spark.createDataset(in.train)(org.apache.spark.sql.Encoders.product[repro.traj.Trip])
    System.gc()
    val t0 = System.nanoTime()
    val model = try Some(L2RPipeline.fit(spark, in.net, ds)) catch {
      case e: Exception => e.printStackTrace(); None
    }
    val secs = (System.nanoTime() - t0) / 1e9
    val ok = model.exists(_.index.isConnected)
    report.operations(1, if (ok) 0 else 1)
    report.check("fit succeeds with a connected region graph", ok,
      if (model.isEmpty) "fit threw" else "region graph is not connected")
    (model.filter(_ => ok), secs)
  }

  // ------------------------------------------------------------ untraced run

  def untraced(): Unit = {
    val setups = (0 until SetupReps).map(_ => timed(setUp()))
    val su = setups.last._1
    val setupS = Stats.median(setups.map(_._2))
    report.note(s"l2rbench ${w.name} seed=${args.seed} nproc=$nproc scale=${w.scale} " +
      s"train=${su.in.train.size} queries=${su.in.queries.size}")
    report.note(f"  setup_s: median of ${setups.map(_._2).map(x => f"$x%.3f").mkString(", ")} s")
    checkStream(su)
    // the first fit in the process: what a user running one fit job pays
    val (modelOpt, fitS) = fit(su.in)
    report.metric("setup_s", setupS, "s")
    report.metric("fit_s", fitS, "s")
    val model = modelOpt.getOrElse(return)
    report.metric("model_mb", serializedBytes(model.index) / 1e6, "MB")

    val router = model.router(su.in.net)
    val route: (Int, Int) => Vector[Int] = router.route
    val results = validate(route, su.in, model.index)
    val bad = results.map(!_.valid)
    report.operations(results.length, bad.count(identity))
    report.check("every routed path is a valid s-d road path", !bad.contains(true),
      s"${bad.count(identity)} of ${bad.length} invalid")

    warmUp(route, su.in, bad)
    val gc0 = Gc.snapshot()
    // Rounds alternate one client and nproc clients, so both see the same
    // machine. Contention from outside only ever slows a round down, so p50
    // and throughput are the best round's; p99 pools all rounds.
    var next = 0
    val rounds = (0 until Rounds).map { r =>
      val pooled = next
      val one = closedLoop(route, su.in, bad, args.seconds * OneClientShare / Rounds,
        if (r == Rounds - 1) MinSamples - pooled else 0, start = next)
      next += one.attempts.toInt
      (one, parallelLoop(route, su.in, bad, args.seconds * (1 - OneClientShare) / Rounds))
    }
    rounds.foreach { case (one, many) => report.operations(one.attempts + many.attempts, one.failures + many.failures) }
    val lat = Stats.sorted(rounds.flatMap(_._1.nanos))
    val tail = Stats.tailPercentile(lat.length).getOrElse(50.0)
    val roundP50 = rounds.map(r => Stats.percentile(Stats.sorted(r._1.nanos), 50) / 1e3)
    report.note(s"  l2r latency: n=${lat.length} (1 client), highest percentile with >=10 beyond: p$tail " +
      f"= ${Stats.percentile(lat, tail) / 1e3}%.1f us; ${rounds.map(_._2.attempts).sum} queries on $nproc clients")
    val gc1 = Gc.snapshot()
    report.note(s"  gc during the loops: ${gc1._1 - gc0._1} collections, ${gc1._2 - gc0._2} ms")
    val qps = rounds.map(r => r._1.attempts / r._1.seconds)
    val qpsN = rounds.map(r => r._2.attempts / r._2.seconds)
    report.note(s"  per round: p50_us ${roundP50.map(x => f"$x%.1f").mkString(" ")}; " +
      s"qps ${qps.map(x => f"$x%.0f").mkString(" ")}; qps_nproc ${qpsN.map(x => f"$x%.0f").mkString(" ")}")
    // Latency and throughput spread more than any bound allows from run to
    // run on a shared machine: they are printed here, not gated, and the
    // traced run reports them as per-layer metrics.
    report.note(f"  l2r p50 ${roundP50.min}%.1f us (best round), p99 ${Stats.percentile(lat, 99) / 1e3}%.1f us; " +
      f"best round ${qps.max}%.0f qps on one client, ${qpsN.max}%.0f qps on $nproc clients")
    report.metric("l2r_sim1", Stats.mean(results.map(_.sim1)), "ratio")
    report.metric("l2r_sim2", Stats.mean(results.map(_.sim2)), "ratio")
  }

  // -------------------------------------------------------------- traced run

  def traced(): Unit = {
    val su = setUp()
    val in = su.in
    report.note(s"l2rbench ${w.name} seed=${args.seed} nproc=$nproc scale=${w.scale} traced " +
      s"train=${in.train.size} queries=${in.queries.size}")
    report.metric("traj.generate_s", su.generateSeconds, "s")
    checkStream(su)

    // the traced and the untraced fit both run warm, so that their
    // difference is the tracing overhead
    val (_, warmUpS) = timed(Scenario.tiny(spark))
    report.note(f"  warm-up fit on the tiny scenario: $warmUpS%.2f s")
    val tracer = new Tracer
    val observer = new SparkObserver
    spark.sparkContext.addSparkListener(observer)
    val (staged, entries) = try {
      val gc0 = Gc.snapshot()
      val st = stagedFit(in, tracer)
      val gc1 = Gc.snapshot()
      report.metric("jvm.gc_s.fit", (gc1._2 - gc0._2) / 1e3, "s")
      report.metric("jvm.gc_count.fit", (gc1._1 - gc0._1).toDouble, "count")
      // the Eq. 3 similarity graph again, timed on its own and outside the fit
      (st, stage(tracer, "adjacency")(PreferenceTransfer.adjacency(spark, st.feats, st.params.amr)))
    } finally {
      report.check("Spark listener drained", observer.drain())
      spark.sparkContext.removeSparkListener(observer)
    }
    val (modelOpt, fitUntraced) = fit(in)
    val model = modelOpt.getOrElse(return)
    fitMetrics(in.net, model, staged, entries, tracer, observer, fitUntraced)

    val router = model.router(in.net)
    val route: (Int, Int) => Vector[Int] = router.route
    val results = validate(route, in, model.index)
    val bad = results.map(!_.valid)
    report.operations(results.length, bad.count(identity))
    report.check("every routed path is a valid s-d road path", !bad.contains(true),
      s"${bad.count(identity)} of ${bad.length} invalid")
    evalMetrics(results, in.bounds)

    warmUp(route, in, bad)
    val plain = closedLoop(route, in, bad, args.seconds * UntracedShareInTrace, MinSamples)
    val many = parallelLoop(route, in, bad, args.seconds * UntracedShareInTrace / 2)
    report.operations(plain.attempts + many.attempts, plain.failures + many.failures)
    report.metric("route.untraced.p99_us", Stats.percentile(Stats.sorted(plain.nanos), 99) / 1e3, "us")
    report.metric("route.untraced.qps", plain.attempts / plain.seconds, "1/s")
    report.metric("route.untraced.qps_nproc", many.attempts / many.seconds, "1/s")
    tracedLoop(router, model.index, in, bad, tracer, args.seconds * (1 - UntracedShareInTrace),
      Stats.percentile(Stats.sorted(plain.nanos), 50))
    baselineMetrics(su.baselines, in)

    val dir = args.workDir.resolve("trace")
    Files.createDirectories(dir)
    val out = dir.resolve(s"${w.name}-seed${args.seed}.jsonl")
    tracer.writeJsonLines(out)
    report.note(s"  ${tracer.count} spans written to ${Paths.get("").toAbsolutePath.relativize(out)}")
  }

  /** The fit, replayed stage by stage in `L2RPipeline.fit`'s order through
    * the same public calls, each inside a span and a Spark label.
    */
  private final case class Staged(
      index0: RegionGraphIndex, index: RegionGraphIndex, regions: Seq[Clustering.Region],
      learned: Seq[PreferenceLearning.LearnedPref], feats: IndexedSeq[PreferenceTransfer.REdgeFeat],
      transfer: PreferenceTransfer.TransferResult, params: L2RPipeline.Params)

  private def stage[A](tracer: Tracer, name: String)(f: => A): A =
    tracer.span(s"core.$name")(SparkObserver.labelled(spark.sparkContext, name)(f))

  private def stagedFit(in: Inputs, tracer: Tracer): Staged = {
    val params = L2RPipeline.Params()
    val net = in.net
    val ds = spark.createDataset(in.train)(org.apache.spark.sql.Encoders.product[repro.traj.Trip])
    tracer.span("fit") {
      ds.persist()
      val edges = stage(tracer, "trajectory_graph")(TrajectoryGraph.clusterInput(ds, net))
      val regions = stage(tracer, "clustering")(Clustering.cluster(edges))
      val index0 = stage(tracer, "region_graph")(RegionGraph.build(spark, net, ds, regions, params.graph))
      val learned = stage(tracer, "learn") {
        val tedges = index0.edges.values.filter(_.isT).map { e =>
          PreferenceLearning.TEdgePaths(e.ri, e.rj, e.paths.map(_.verts), e.paths.map(_.count))
        }.toSeq
        PreferenceLearning.learn(spark, net, tedges)
      }
      val learnedMap = learned.map(lp => ((math.min(lp.ri, lp.rj), math.max(lp.ri, lp.rj)), lp)).toMap
      val (feats, tres) = stage(tracer, "transfer") {
        val feats = PreferenceTransfer.features(index0, learnedMap)
        (feats, PreferenceTransfer.transfer(spark, feats, params.amr, params.mu1, params.mu2))
      }
      val index = stage(tracer, "bedge_paths")(BEdgePaths.materialise(spark, net, index0, tres.prefs, params.tcsPerSide))
      ds.unpersist()
      Staged(index0, index, regions, learned, feats, tres, params)
    }
  }

  private def fitMetrics(net: RoadNetwork, model: L2RPipeline.Model, st: Staged, entries: Seq[(Int, Int, Double)],
                         tracer: Tracer, observer: SparkObserver, fitUntraced: Double): Unit = {
    def secs(name: String): Double = tracer.ids(name).map(tracer.nanos).sum / 1e9
    val stages = Seq("trajectory_graph", "clustering", "region_graph", "learn", "transfer", "bedge_paths")
    val residual = relResidualMax(st.feats, entries, st.transfer.yHat, st.params.mu1, st.params.mu2)

    Seq("trajectory_graph", "clustering", "region_graph", "learn", "adjacency", "transfer")
      .foreach(s => report.metric(s"core.${s}_s", secs(s"core.$s"), "s"))
    report.metric("util.cg_solve_s", st.transfer.solveMillis / 1e3, "s")
    report.metric("core.bedge_paths_s", secs("core.bedge_paths"), "s")

    val tEdges = st.index0.edges.values.filter(_.isT).toSeq
    val bEdges = st.index0.edges.values.filterNot(_.isT).toSeq
    val stored = tEdges.map(_.paths.size).sum
    val n = st.feats.length.toLong
    // BEdgePaths.routeTask searches every transfer-center pair with s != d
    val bSearches = bEdges.map { e =>
      val a = st.index0.regions(e.ri); val b = st.index0.regions(e.rj)
      val k = st.params.tcsPerSide
      val src = BEdgePaths.pickTcs(net, a, b, k); val dst = BEdgePaths.pickTcs(net, b, a, k)
      src.map(s => dst.count(_ != s)).sum
    }.sum
    report.metric("core.regions", st.regions.size.toDouble, "count")
    report.metric("core.t_edges", tEdges.size.toDouble, "count")
    report.metric("core.b_edges", bEdges.size.toDouble, "count")
    report.metric("core.stored_paths", stored.toDouble, "count")
    report.metric("core.learn_searches", 15.0 * tEdges.map(_.paths.count(_.verts.length >= 2)).sum, "count")
    report.metric("core.sim_pairs_scanned", (n * (n - 1) / 2).toDouble, "count")
    report.metric("core.sim_pairs_kept", st.transfer.adjacencyNnz.toDouble, "count")
    report.metric("core.bedge_searches", bSearches.toDouble, "count")
    report.metric("core.transfer_null_rate", st.transfer.nullRate, "ratio")
    report.metric("util.cg_rel_residual_max", residual, "ratio")
    report.check(s"CG relative residual <= $ResidualTolerance", residual <= ResidualTolerance, f"$residual%.3e")
    report.check("adjacency matches the transfer's nnz", entries.size.toLong == st.transfer.adjacencyNnz,
      s"${entries.size} vs ${st.transfer.adjacencyNnz}")

    Seq("trajectory_graph", "region_graph", "learn", "adjacency", "transfer", "bedge_paths").foreach { s =>
      val (jobs, tasks, busyMs) = observer.get(s)
      report.metric(s"spark.$s.jobs", jobs.toDouble, "count")
      report.metric(s"spark.$s.tasks", tasks.toDouble, "count")
      report.metric(s"spark.$s.task_busy_s", busyMs / 1e3, "s")
    }

    report.check("staged fit has the fit's region-edge keys", st.index.edges.keySet == model.index.edges.keySet)
    report.check("staged fit learns the fit's preferences", learnedOf(st.learned) == learnedOf(model.learned))
    report.check("staged fit transfers the fit's preferences", st.transfer.prefs == model.transfer.prefs)
    report.check("staged fit gives the fit's edge preferences", edgePrefs(st.index) == edgePrefs(model.index))

    // stage spans against the program's own stage clock
    val (mGraph, mLearn, mTransfer, mApply) = model.stageMillis
    val pairs = Seq(
      "graph" -> (secs("core.trajectory_graph") + secs("core.clustering") + secs("core.region_graph"), mGraph / 1e3),
      "learn" -> (secs("core.learn"), mLearn / 1e3),
      "transfer" -> (secs("core.transfer"), mTransfer / 1e3),
      "apply" -> (secs("core.bedge_paths"), mApply / 1e3))
    val dev = pairs.map { case (_, (a, b)) => math.abs(a - b) }.max
    report.metric("trace.stage_vs_model_dev_s", dev, "s")
    report.check("stage spans agree with Model.stageMillis",
      pairs.forall { case (_, (a, b)) => math.abs(a - b) <= StageTolerance * math.max(a, b) + StageSlackS },
      pairs.map { case (k, (a, b)) => f"$k span $a%.2f s vs model $b%.2f s" }.mkString(", "))

    val fitId = tracer.ids("fit").head
    val traced = tracer.nanos(fitId) / 1e9
    val stageSum = stages.map(s => secs(s"core.$s")).sum
    report.metric("trace.fit_untraced_s", fitUntraced, "s")
    report.metric("trace.fit_traced_s", traced, "s")
    report.metric("trace.fit_overhead_s", traced - fitUntraced, "s")
    report.metric("trace.fit_stage_sum_s", stageSum, "s")
    report.metric("trace.fit_self_s", tracer.selfNanos()(fitId) / 1e9, "s")
  }

  private def evalMetrics(results: Array[QueryResult], bounds: Seq[Double]): Unit = {
    bounds.sliding(2).zipWithIndex.foreach { case (Seq(lo, hi), i) =>
      val in = results.filter(r => r.km > lo && r.km <= hi)
      report.note(f"  eval bucket${i + 1} ($lo%.0f,$hi%.0f] km: n=${in.length}")
      report.metric(s"eval.l2r_sim1.bucket${i + 1}", Stats.mean(in.map(_.sim1)), "ratio")
    }
    Seq("InRegion", "InOutRegion", "OutRegion").foreach { c =>
      val in = results.filter(_.category == c)
      report.note(s"  eval $c: n=${in.length}")
      report.metric(s"eval.l2r_sim1.$c", Stats.mean(in.map(_.sim1)), "ratio")
    }
  }

  /** Single-client loop with a span per query and per call inside it. */
  private def tracedLoop(router: L2RRouter, index: RegionGraphIndex, in: Inputs, bad: Array[Boolean],
                         tracer: Tracer, seconds: Double, untracedP50: Long): Unit = {
    val net = in.net
    val branches = Seq("same_region", "diff_region", "case2")
    val byBranch = branches.map(_ -> mutable.ArrayBuffer.empty[Long]).toMap
    val inner, regionPath, dijkstra = mutable.ArrayBuffer.empty[Long]
    val queryIds = mutable.ArrayBuffer.empty[Int]
    var failures = 0L
    val gc0 = Gc.snapshot()
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    var i = 0
    while (System.nanoTime() < deadline) {
      val k = i % in.queries.length
      val t = in.queries(k)
      val s = t.path.head; val d = t.path.last
      val q = tracer.begin("query")
      val rId = tracer.begin("l2r.route")
      val p = try router.route(s, d) catch { case _: Exception => null }
      tracer.end(rId)
      val branch = (index.vertexRegion.get(s), index.vertexRegion.get(d)) match {
        case (Some(a), Some(b)) if a == b =>
          inner += timedNanos(tracer, "core.inner_route")(router.innerRoute(a, s, d)); "same_region"
        case (Some(a), Some(b)) =>
          regionPath += timedNanos(tracer, "core.region_path")(router.regionPath(a, b)); "diff_region"
        case _ => "case2"
      }
      dijkstra += timedNanos(tracer, "roadnet.dijkstra_tt")(net.dijkstra(s, d, _.tt))
      tracer.end(q)
      queryIds += q
      byBranch(branch) += tracer.nanos(rId)
      if (p == null || bad(k) || p.head != s || p.last != d) failures += 1
      i += 1
    }
    val gc1 = Gc.snapshot()
    report.operations(i, failures)
    report.metric("jvm.gc_s.route", (gc1._2 - gc0._2) / 1e3, "s")
    report.metric("jvm.gc_count.route", (gc1._1 - gc0._1).toDouble, "count")
    branches.foreach { b =>
      val xs = Stats.sorted(byBranch(b))
      report.metric(s"route.$b.n", xs.length.toDouble, "count")
      report.metric(s"route.$b.p50_us", pctUs(xs, 50), "us")
      report.metric(s"route.$b.p99_us", pctUs(xs, 99), "us")
    }
    report.metric("core.inner_route_p50_us", pctUs(Stats.sorted(inner), 50), "us")
    report.metric("core.region_path_p50_us", pctUs(Stats.sorted(regionPath), 50), "us")
    val dj = Stats.sorted(dijkstra)
    report.metric("roadnet.dijkstra_tt_p50_us", pctUs(dj, 50), "us")
    report.metric("roadnet.dijkstra_tt_p99_us", pctUs(dj, 99), "us")
    val routeAll = Stats.sorted(byBranch.values.flatten)
    report.note(s"  traced loop: $i queries; branches " +
      branches.map(b => s"$b=${byBranch(b).size}").mkString(" ") +
      s"; inner_route n=${inner.size}, region_path n=${regionPath.size}")
    report.metric("trace.route_untraced_p50_us", untracedP50 / 1e3, "us")
    report.metric("trace.route_overhead_pct",
      if (routeAll.isEmpty) 0.0 else 100.0 * (Stats.percentile(routeAll, 50).toDouble / untracedP50 - 1), "%")
    val self = tracer.selfNanos()
    report.metric("trace.query_self_p50_us", pctUs(Stats.sorted(queryIds.map(self(_))), 50), "us")
  }

  /** Each baseline routes a fixed prefix of the stream once, after a short
    * warm-up; Dom gets a smaller prefix because it is a skyline search.
    */
  private def baselineMetrics(baselines: Seq[Router], in: Inputs): Unit = baselines.foreach { r =>
    val n = if (r.name == "Dom") DomSample else BaselineSample
    val qs = in.queries.take(n)
    qs.take(WarmUpBaseline).foreach(t => r.route(t.driver, t.path.head, t.path.last))
    val lat = new Array[Long](qs.length)
    var failures = 0
    val sims = qs.indices.map { k =>
      val t = qs(k); val s = t.path.head; val d = t.path.last
      val t0 = System.nanoTime()
      val p = r.route(t.driver, s, d)
      lat(k) = System.nanoTime() - t0
      if (!validPath(in.net, p, s, d)) failures += 1
      PathSim.sim1(in.net, t.path, p)
    }
    report.operations(qs.length, failures)
    java.util.Arrays.sort(lat)
    report.note(s"  baseline ${r.name}: n=${qs.length}, failed=$failures")
    report.metric(s"baselines.${r.name}.p50_us", pctUs(lat, 50), "us")
    report.metric(s"baselines.${r.name}.sim1", Stats.mean(sims), "ratio")
  }

  // ------------------------------------------------------------ query loops

  /** Routes every query once on `nproc` threads: validity and similarity to
    * the ground-truth path.
    */
  private def validate(route: (Int, Int) => Vector[Int], in: Inputs, index: RegionGraphIndex): Array[QueryResult] = {
    val out = new Array[QueryResult](in.queries.length)
    onThreads(nproc) { (tid, _) =>
      var k = tid
      while (k < out.length) {
        val gt = in.queries(k).path.toVector
        val s = gt.head; val d = gt.last
        val p = try route(s, d) catch { case _: Exception => null }
        out(k) =
          if (p == null) QueryResult(valid = false, 0.0, 0.0, in.net.pathLength(gt), Evaluator.categorize(index, s, d))
          else QueryResult(validPath(in.net, p, s, d), PathSim.sim1(in.net, gt, p), PathSim.sim2(in.net, gt, p),
            in.net.pathLength(gt), Evaluator.categorize(index, s, d))
        k += nproc
      }
    }
    out
  }

  private def warmUp(route: (Int, Int) => Vector[Int], in: Inputs, bad: Array[Boolean]): Unit = {
    System.gc()
    parallelLoop(route, in, bad, WarmUpSeconds)
    closedLoop(route, in, bad, WarmUpSeconds, 1)
  }

  private final case class Loop(attempts: Long, failures: Long, seconds: Double, nanos: Array[Long])

  /** One client: the next query is sent when the previous one returns. */
  private def closedLoop(route: (Int, Int) => Vector[Int], in: Inputs, bad: Array[Boolean],
                         seconds: Double, minSamples: Int, start: Int = 0): Loop = {
    var lat = new Array[Long](1 << 14)
    var n = 0
    var failures = 0L
    val t0 = System.nanoTime()
    val deadline = t0 + (seconds * 1e9).toLong
    val hardStop = t0 + (seconds * MaxOverrun * 1e9).toLong
    var now = t0
    while ((now < deadline || n < minSamples) && now < hardStop) {
      val k = (start + n) % in.queries.length
      val t = in.queries(k)
      val s = t.path.head; val d = t.path.last
      val a = System.nanoTime()
      val p = try route(s, d) catch { case _: Exception => null }
      now = System.nanoTime()
      if (n == lat.length) lat = java.util.Arrays.copyOf(lat, n * 2)
      lat(n) = now - a
      if (p == null || bad(k) || p.head != s || p.last != d) failures += 1
      n += 1
    }
    Loop(n, failures, (now - t0) / 1e9, java.util.Arrays.copyOf(lat, n))
  }

  /** `nproc` clients, each in its own closed loop over the stream. */
  private def parallelLoop(route: (Int, Int) => Vector[Int], in: Inputs, bad: Array[Boolean],
                           seconds: Double): Loop = {
    val counts = new Array[Long](nproc)
    val fails = new Array[Long](nproc)
    val t0 = System.nanoTime()
    val deadline = t0 + (seconds * 1e9).toLong
    onThreads(nproc) { (tid, _) =>
      var k = tid * in.queries.length / nproc
      var n = 0L; var f = 0L
      while (System.nanoTime() < deadline) {
        val t = in.queries(k)
        val s = t.path.head; val d = t.path.last
        val p = try route(s, d) catch { case _: Exception => null }
        if (p == null || bad(k) || p.head != s || p.last != d) f += 1
        n += 1
        k = (k + 1) % in.queries.length
      }
      counts(tid) = n; fails(tid) = f
    }
    Loop(counts.sum, fails.sum, (System.nanoTime() - t0) / 1e9, Array.emptyLongArray)
  }
}

object Bench {
  def learnedOf(ls: Seq[PreferenceLearning.LearnedPref]): Map[(Int, Int), (Int, Int)] =
    ls.map(lp => ((math.min(lp.ri, lp.rj), math.max(lp.ri, lp.rj)), (lp.masterId, lp.slaveRt))).toMap

  def edgePrefs(index: RegionGraphIndex): Map[(Int, Int), Option[repro.roadnet.Preference]] =
    index.edges.view.mapValues(_.pref).toMap

  val SetupReps = 3
  val MinSamples = 1000
  val OneClientShare = 0.75
  val Rounds = 4
  val UntracedShareInTrace = 0.3
  val WarmUpSeconds = 1.5
  val MaxOverrun = 3.0
  val BaselineSample = 300
  val DomSample = 30
  val WarmUpBaseline = 20
  /** Relative Eq. 3 residual the CG solve (tolerance 1e-10) must meet. */
  val ResidualTolerance = 1e-6
  /** Two warm fits' stage times agree within this share plus slack. */
  val StageTolerance = 0.5
  val StageSlackS = 0.5

  def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime(); val a = f; (a, (System.nanoTime() - t0) / 1e9)
  }

  def timedNanos(tracer: Tracer, name: String)(f: => Any): Long = {
    val id = tracer.begin(name); f; tracer.end(id); tracer.nanos(id)
  }

  def pctUs(sorted: Array[Long], p: Double): Double =
    if (sorted.isEmpty) 0.0 else Stats.percentile(sorted, p) / 1e3

  /** A routed path is valid when it runs from s to d over network edges. */
  def validPath(net: RoadNetwork, p: Vector[Int], s: Int, d: Int): Boolean =
    p.nonEmpty && p.head == s && p.last == d && net.isValidPath(p)

  def onThreads(n: Int)(body: (Int, Int) => Unit): Unit = {
    val errors = new java.util.concurrent.ConcurrentLinkedQueue[Throwable]()
    val ts = (0 until n).map { i =>
      val t = new Thread(() => try body(i, n) catch { case e: Throwable => errors.add(e) })
      t.start(); t
    }
    ts.foreach(_.join())
    Option(errors.peek()).foreach(e => throw e)
  }

  def serializedBytes(o: AnyRef): Long = {
    var n = 0L
    val sink = new java.io.OutputStream {
      override def write(b: Int): Unit = n += 1
      override def write(b: Array[Byte], off: Int, len: Int): Unit = n += len
    }
    val out = new java.io.ObjectOutputStream(sink)
    out.writeObject(o); out.close()
    n
  }

  /** max over feature columns of ‖A·ŷ − S·y‖ / ‖S·y‖ for the Eq. 3 system
    * A = S + μ₁(D − M) + μ₂I, rebuilt from the adjacency entries.
    */
  def relResidualMax(feats: IndexedSeq[PreferenceTransfer.REdgeFeat], entries: Seq[(Int, Int, Double)],
                     yHat: Array[Array[Double]], mu1: Double, mu2: Double): Double = {
    val n = feats.length
    val deg = new Array[Double](n)
    val nbr = Array.fill(n)(mutable.ArrayBuffer.empty[(Int, Double)])
    entries.foreach { case (i, j, s) => deg(i) += s; deg(j) += s; nbr(i) += ((j, s)); nbr(j) += ((i, s)) }
    (0 until PreferenceTransfer.P).map { x =>
      val b = Array.tabulate(n) { i =>
        val f = feats(i)
        if (f.isT && ((x < 3 && f.masterId == x) || (x >= 3 && f.slaveRt == x - 2))) 1.0 else 0.0
      }
      val bNorm = math.sqrt(b.map(v => v * v).sum)
      if (bNorm == 0) 0.0
      else {
        val r = Array.tabulate(n) { i =>
          val sDiag = if (feats(i).isT) 1.0 else 0.0
          val ax = (sDiag + mu1 * deg(i) + mu2) * yHat(i)(x) - mu1 * nbr(i).map { case (j, s) => s * yHat(j)(x) }.sum
          ax - b(i)
        }
        math.sqrt(r.map(v => v * v).sum) / bNorm
      }
    }.max
  }
}
