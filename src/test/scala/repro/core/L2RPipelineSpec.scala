package repro.core

import repro.SparkJobs.jobsOf
import repro.traj.TrajectoryGen
import repro.{Fixtures, SparkSpec, TestNets}

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream, ObjectStreamClass}
import scala.collection.mutable
import scala.util.Random

/** `L2RPipeline.fit` as a whole: the model does not depend on how the
  * training trips are partitioned, the fit starts no Spark job of its own,
  * the Spark forms kept for l2rbench equal the Spark-free ones, and the
  * fitted index keeps its digest and its compact serialised form.
  */
class L2RPipelineSpec extends SparkSpec {
  import spark.implicits._

  private lazy val net = TestNets.smallGrid(14, 10)
  private lazy val trips = TrajectoryGen.generateLocal(net,
    TrajectoryGen.Config(nTrips = 400, nDrivers = 8, nZones = 4, zoneRadiusKm = 0.8, seed = 31L))

  /** Learned preferences with `avgSim` as its raw bits. */
  private def exact(learned: Seq[PreferenceLearning.LearnedPref]) =
    learned.map(lp => (lp.copy(avgSim = 0.0), java.lang.Double.doubleToRawLongBits(lp.avgSim)))

  test("a fit gives the same model from a 1-partition and a 5-partition Dataset") {
    val one = spark.createDataset(trips).coalesce(1)
    val five = spark.createDataset(trips).repartition(5)
    assert(one.rdd.getNumPartitions === 1 && five.rdd.getNumPartitions === 5)
    val shuffled = five.collect().toSeq
    assert(shuffled != trips && shuffled.sortBy(_.id) === trips.sortBy(_.id), "repartition must reorder the trips")

    val a = L2RPipeline.fit(spark, net, one)
    val b = L2RPipeline.fit(spark, net, five)
    assert(a.nTEdges > 0 && a.nBEdges > 0)
    assert(a.digest === b.digest)
    assert(Fixtures.serialise(a.index).sameElements(Fixtures.serialise(b.index)), "serialised RegionGraphIndex differs")
    assert(a.regions === b.regions)
    assert(exact(a.learned) === exact(b.learned))
    assert(a.transfer.prefs === b.transfer.prefs)
  }

  test("fit runs no Spark job beyond collecting the trips") {
    // the counter sees a job, and only the labelled thread's
    assert(jobsOf(spark.sparkContext)(spark.sparkContext.parallelize(1 to 10, 2).count()) === 1)
    val ds = spark.createDataset(trips)
    // a Dataset of local rows collects without a job
    assert(jobsOf(spark.sparkContext)(L2RPipeline.fit(spark, net, ds)) === 0)
  }

  test("the Spark forms l2rbench calls equal the Spark-free forms") {
    val sc = Fixtures.tiny
    val fit = L2RPipeline.Params()
    val tedges = sc.model.index.edges.values.filter(_.isT).map { e =>
      PreferenceLearning.TEdgePaths(e.ri, e.rj, e.paths.map(_.verts), e.paths.map(_.count))
    }.toSeq
    val learned = PreferenceLearning.learn(sc.net, tedges)
    assert(exact(PreferenceLearning.learn(spark, sc.net, tedges)) === exact(learned))

    val feats = PreferenceTransfer.features(sc.model.index, PreferenceLearning.byKey(learned))
    val res = PreferenceTransfer.transfer(feats, fit.amr, fit.mu1, fit.mu2)
    val viaSpark = PreferenceTransfer.transfer(spark, feats, fit.amr, fit.mu1, fit.mu2)
    def bits(y: Array[Array[Double]]) = y.toSeq.map(_.toSeq.map(java.lang.Double.doubleToRawLongBits))
    assert(bits(viaSpark.yHat) === bits(res.yHat))
    assert(viaSpark.prefs === res.prefs)
    assert(PreferenceTransfer.adjacency(spark, feats, fit.amr) === PreferenceTransfer.adjacency(feats, fit.amr))

    val index = BEdgePaths.materialise(sc.net, sc.model.index, res.prefs, fit.tcsPerSide)
    val indexViaSpark = BEdgePaths.materialise(spark, sc.net, sc.model.index, res.prefs, fit.tcsPerSide)
    assert(L2RPipeline.Model.digest(indexViaSpark) === L2RPipeline.Model.digest(index))
    assert(L2RPipeline.fit(spark, net, spark.createDataset(trips)).digest === L2RPipeline.fit(net, trips).digest)
  }

  test("the tiny scenario's model keeps its pinned digest") {
    // computed from the map-based index the array layout replaced; a
    // deliberate model change updates the pin and says why
    assert(Fixtures.tiny.model.digest === "648b3a2c669142255f15e4b4d8ca1863ade8f9135169965e61192d2ffb2c851a")
  }

  test("a serialised index holds arrays, not boxed vertices, and reads back to the same routes") {
    val sc = Fixtures.tiny
    val classes = mutable.Set.empty[String]
    val bytes = new ByteArrayOutputStream()
    val out = new ObjectOutputStream(bytes) {
      override def annotateClass(c: Class[_]): Unit = classes += c.getName
    }
    out.writeObject(sc.model.index); out.close()
    assert(classes.contains(classOf[RegionGraphIndex].getName) && classes.contains("[I") && classes.contains("[B"), classes)
    val banned = Set("java.lang.Integer", "scala.collection.immutable.$colon$colon", "scala.Tuple2",
      "scala.collection.immutable.HashMap")
    assert((classes & banned).isEmpty, classes)
    // every serialised field is a primitive array, and the stored vertices are bytes
    val fields = ObjectStreamClass.lookup(classOf[RegionGraphIndex]).getFields.toSeq
    assert(fields.forall(f => f.getType.isArray && f.getType.getComponentType.isPrimitive),
      fields.map(f => s"${f.getName}: ${f.getType.getName}"))
    assert(fields.find(_.getName == "pathBytes").map(_.getType) === Some(classOf[Array[Byte]]))
    // a road hop of the tiny scenario's grid takes 1 or 2 bytes, and so does a first vertex below 2^13
    val idx = sc.model.index
    val rows = idx.edgeRows
    val stored = rows.indices.flatMap(e => idx.edgePaths(e).zip(rows(e).paths)) ++
      (0 until idx.nRegions).flatMap(i => idx.innerPathsOf(i).zip(idx.pathRecs(idx.innerPathsOf(i))))
    assert(stored.map(_._1) === (0 until idx.pathCount.length) && stored.nonEmpty)
    stored.foreach { case (p, rec) =>
      assert(idx.pathOff(p + 1) - idx.pathOff(p) <= 2 * rec.verts.length, s"path $p: $rec")
    }

    val back = new ObjectInputStream(new ByteArrayInputStream(bytes.toByteArray)).readObject().asInstanceOf[RegionGraphIndex]
    assert(L2RPipeline.Model.digest(back) === sc.model.digest)
    val (a, b) = (sc.model.router(sc.net), new L2RRouter(sc.net, back))
    val rnd = new Random(23)
    for (_ <- 0 until 2000) {
      val s = rnd.nextInt(sc.net.n); val d = rnd.nextInt(sc.net.n)
      assert(b.route(s, d) === a.route(s, d), s"$s to $d")
    }
  }
}
