package repro.core

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.roadnet.RoadNetwork
import repro.traj.Trip

import java.io.{DataOutputStream, OutputStream}
import java.security.{DigestOutputStream, MessageDigest}

/** End-to-end offline construction of the L2R routing infrastructure —
  * the three steps of Figure 2:
  *
  *  1. cluster the trajectory graph into regions and build the region graph
  *     (T-edges from trajectories, B-edges from BFS);
  *  2. learn a routing preference per T-edge and transfer preferences to
  *     B-edges by graph transduction;
  *  3. materialise preference-optimal paths for B-edges.
  *
  * Stage wall-clock times are recorded for the offline-processing-time
  * comparison in Section VII-C.
  *
  * The training trips are collected to the driver once, and every stage runs
  * there: the trajectory graph and the region graph are single passes over
  * a few hundred trips, and learning and B-edge paths run on a pool of driver
  * threads. `spark` only gives that pool its size. `fit` leaves the storage
  * level of `trainTrips` as its caller set it.
  */
object L2RPipeline {

  /** The fit's settings; every fit runs with the defaults. */
  final case class Params(
      amr: Double = 0.7,
      mu1: Double = 1.0,
      mu2: Double = 0.01,
      graph: RegionGraph.Params = RegionGraph.Params(),
      tcsPerSide: Int = 2)

  /** The settings every fit runs with. */
  private val FitParams = Params()

  final case class Model(
      index: RegionGraphIndex,
      regions: Seq[Clustering.Region],
      learned: Seq[PreferenceLearning.LearnedPref],
      transfer: PreferenceTransfer.TransferResult,
      /** millis: (clustering+regionGraph, learn, transfer, applyPaths) */
      stageMillis: (Long, Long, Long, Long)) {
    def router(net: RoadNetwork): L2RRouter = new L2RRouter(net, index)
    def nTEdges: Int = index.nTEdges
    def nBEdges: Int = index.nEdges - index.nTEdges
    def digest: String = Model.digest(index)
  }

  object Model {
    /** SHA-256 (hex) of a canonical encoding of `index`, read from its
      * views: regions by id (members sorted; centroid bits, top road types
      * and transfer centres in order), the vertex → region map by vertex,
      * region edges by key (endpoints, isT, preference, stored paths with
      * their counts in order) and the inner paths of each region that has
      * some, by id. Equal digests mean equal routing infrastructure,
      * whatever the serialised bytes.
      */
    def digest(index: RegionGraphIndex): String = {
      val md = MessageDigest.getInstance("SHA-256")
      val out = new DataOutputStream(new DigestOutputStream(OutputStream.nullOutputStream(), md))
      def ints(xs: Iterable[Int]): Unit = { out.writeInt(xs.size); xs.foreach(out.writeInt) }
      def paths(ps: Seq[PathRec]): Unit = { out.writeInt(ps.size); ps.foreach { p => ints(p.verts); out.writeInt(p.count) } }
      out.writeInt(index.regions.size)
      index.regions.foreach { r =>
        out.writeInt(r.id); ints(r.members.sorted); out.writeDouble(r.cx); out.writeDouble(r.cy)
        ints(r.topRts); ints(r.transferCenters)
      }
      val vr = index.vertexRegion.toSeq.sorted
      out.writeInt(vr.size)
      vr.foreach { case (v, r) => out.writeInt(v); out.writeInt(r) }
      val edges = index.edges.toSeq.sortBy(_._1)
      out.writeInt(edges.size)
      edges.foreach { case ((a, b), e) =>
        out.writeInt(a); out.writeInt(b); out.writeInt(e.ri); out.writeInt(e.rj); out.writeBoolean(e.isT)
        out.writeInt(e.pref.fold(-1)(_.masterId)); out.writeInt(e.pref.fold(-1)(_.slaveRt))
        paths(e.paths)
      }
      val inner = index.innerPaths.indices.filter(index.innerPaths(_).nonEmpty)
      out.writeInt(inner.size)
      inner.foreach { r => out.writeInt(r); paths(index.innerPaths(r)) }
      out.flush()
      md.digest().map("%02x".format(_)).mkString
    }
  }

  private def timed[A](f: => A): (A, Long) = {
    val t0 = System.nanoTime(); val a = f; (a, (System.nanoTime() - t0) / 1000000)
  }

  def fit(spark: SparkSession, net: RoadNetwork, trainTrips: Dataset[Trip]): Model = {
    // Step 0+1: trajectory graph → regions → region graph
    val ((regions, index0), tGraph) = timed {
      val trips = trainTrips.collect().toSeq
      val regions = Clustering.cluster(TrajectoryGraph.clusterInput(trips, net))
      (regions, RegionGraph.build(net, trips, regions, FitParams.graph))
    }

    // Step 1 (Section V): learn preferences for T-edges
    val (learned, tLearn) = timed {
      val tedges = index0.edges.values.filter(_.isT).map { e =>
        PreferenceLearning.TEdgePaths(e.ri, e.rj,
          e.paths.map(_.verts), e.paths.map(_.count))
      }.toSeq
      PreferenceLearning.learn(spark, net, tedges)
    }

    // Step 2: transfer preferences to B-edges
    val (transferRes, tTransfer) = timed {
      val feats = PreferenceTransfer.features(index0, PreferenceLearning.byKey(learned))
      PreferenceTransfer.transfer(spark, feats, FitParams.amr, FitParams.mu1, FitParams.mu2)
    }

    // Step 3: apply preferences — materialise B-edge paths
    val (index, tApply) = timed {
      BEdgePaths.materialise(spark, net, index0, transferRes.prefs, FitParams.tcsPerSide)
    }

    Model(index, regions, learned, transferRes, (tGraph, tLearn, tTransfer, tApply))
  }
}
