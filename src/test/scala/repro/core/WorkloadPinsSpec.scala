package repro.core

import repro.Fixtures
import repro.eval.Scenario
import repro.roadnet.{Preference, RoadNetGen}
import repro.traj.TrajectoryGen

import java.io.{DataOutputStream, OutputStream}
import java.security.{DigestOutputStream, MessageDigest}
import org.scalatest.funsuite.AnyFunSuite

/** Identity pins for the training sets of l2rbench's two workloads:
  * `Scenario.build` on D2-lite at scale 0.07 and on D1-lite at 0.1. Each fit
  * keeps its `Model.digest`, the exact preferences it learned and the bytes
  * of its serialised index, L2R and Fastest keep their routes of the
  * scenario's test trips, and the router keeps its region path of every
  * ordered region pair. A change that moves any of them fails here; a
  * deliberate re-baseline updates the pins and says why.
  */
class WorkloadPinsSpec extends AnyFunSuite {

  /** SHA-256 (hex) of what `write` writes to a data stream. */
  private def sha(write: DataOutputStream => Unit): String = {
    val md = MessageDigest.getInstance("SHA-256")
    val out = new DataOutputStream(new DigestOutputStream(OutputStream.nullOutputStream(), md))
    write(out)
    out.flush()
    md.digest().map("%02x".format(_)).mkString
  }

  /** Over the learned preferences sorted by region edge: ri, rj,
    * `Preference.code` and the raw bits of `avgSim`.
    */
  private def learnedSha(learned: Seq[PreferenceLearning.LearnedPref]): String = sha { out =>
    learned.sortBy(lp => (lp.ri, lp.rj)).foreach { lp =>
      out.writeInt(lp.ri); out.writeInt(lp.rj); out.writeInt(Preference.code(lp.pref))
      out.writeLong(java.lang.Double.doubleToRawLongBits(lp.avgSim))
    }
  }

  /** Over the routes of router `name` from each test trip's first vertex to
    * its last, in trip order: each route's length, then its vertices.
    */
  private def routesSha(sc: Scenario, name: String): String = sha { out =>
    val router = sc.routers.find(_.name == name).get
    sc.test.foreach { t =>
      val p = router.route(t.driver, t.path.head, t.path.last)
      out.writeInt(p.length); p.foreach(out.writeInt)
    }
  }

  /** Over `regionPath(a, b)` of every ordered region pair, in (a, b) order:
    * the path's length (-1 for None), then its region ids.
    */
  private def regionPathsSha(sc: Scenario): String = sha { out =>
    val router = sc.model.router(sc.net)
    val ids = 0 until sc.model.index.nRegions
    for (a <- ids; b <- ids) router.regionPath(a, b) match {
      case Some(rp) => out.writeInt(rp.length); rp.foreach(out.writeInt)
      case None     => out.writeInt(-1)
    }
  }

  /** The byte count and SHA-256 of the Java-serialised index. */
  private def indexPin(index: RegionGraphIndex): (Int, String) = {
    val bytes = Fixtures.serialise(index)
    (bytes.length, sha(_.write(bytes)))
  }

  private def scenario(name: String, cfg: (RoadNetGen.Config, TrajectoryGen.Config, Seq[Double])): Scenario =
    Scenario.build(name, cfg._1, cfg._2, cfg._3)

  private lazy val d2 = scenario("D2-lite", Scenario.d2Config(0.07))
  private lazy val d1 = scenario("D1-lite", Scenario.d1Config(0.1))

  test("D2-lite at scale 0.07 keeps its model digest and learned preferences") {
    assert(d2.model.digest === "503f97cad7727490fd1a80d4264a3c8c45c58e5164995ccec1e0dadb8e069dcb")
    assert(learnedSha(d2.model.learned) === "00fb0c3c48c23577239bad031c47a5306e44a000d3e67710e9b028c47da3a7aa")
  }

  test("D1-lite at scale 0.1 keeps its model digest and learned preferences") {
    assert(d1.model.digest === "d0c4d1305bec3dbe96e045ad50b8c9baed2d872d69544212246d2849d8a33ee8")
    assert(learnedSha(d1.model.learned) === "b7f1a2b893a7fac09016c45f62e4dad18a5afe5152bc5e7fdb671f5aca17fe8a")
  }

  test("D2-lite at scale 0.07 keeps L2R's and Fastest's routes of its test trips and its serialised index") {
    assert(routesSha(d2, "L2R") === "4cbf11b680b56d6790c617adfc9d1d054e84757bcbb9c43711007f7d5a04f83f")
    assert(routesSha(d2, "Fastest") === "9097c8ea6ea6e9e5635bcb013304988d45f279519f79a6c866918236277992b0")
    assert(indexPin(d2.model.index) === ((164363, "7c2dfc85106ddb4d9bde2c6c81541b30a2e4f3d1a56c25a3c1ce428b6806ae8f")))
  }

  test("D1-lite at scale 0.1 keeps L2R's and Fastest's routes of its test trips and its serialised index") {
    assert(routesSha(d1, "L2R") === "e315c62b881f2b11fa4c250a2c4e7472d0075bba70aaa3d548e231b7ea7f5dcd")
    assert(routesSha(d1, "Fastest") === "34c1b0b38a5277d771820556111ebb171551ba046658f437ed233f24f8ba660b")
    assert(indexPin(d1.model.index) === ((613554, "f59fbaaca0a26bf2f198f1c0c77052fe4a545238e31d5fcb49f01eff896b311a")))
  }

  test("D2-lite at scale 0.07 keeps its region path of every region pair and a connected region graph") {
    assert(regionPathsSha(d2) === "47f7c8f81f58c90f3bf77e17599ec8d8875a06e889ecef3c378c3325b95aaec0")
    assert(d2.model.index.isConnected)
  }

  test("D1-lite at scale 0.1 keeps its region path of every region pair and a connected region graph") {
    assert(regionPathsSha(d1) === "d883ece7e2ba8189d6e315545e65c2249ab20db770529209e775df54386918d8")
    assert(d1.model.index.isConnected)
  }
}
