package repro.core

import repro.SparkSpec
import repro.eval.Scenario
import repro.roadnet.{Preference, RoadNetGen}
import repro.traj.TrajectoryGen

import java.io.{DataOutputStream, OutputStream}
import java.security.{DigestOutputStream, MessageDigest}

/** Identity pins for the training sets of l2rbench's two workloads:
  * `Scenario.build` on D2-lite at scale 0.07 and on D1-lite at 0.1. Each fit
  * keeps its `Model.digest` and the exact preferences it learned. A change
  * that moves either fails here; a deliberate re-baseline updates the pins
  * and says why.
  */
class WorkloadPinsSpec extends SparkSpec {

  /** SHA-256 (hex) over the learned preferences sorted by region edge:
    * ri, rj, `Preference.code` and the raw bits of `avgSim`.
    */
  private def learnedSha(learned: Seq[PreferenceLearning.LearnedPref]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    val out = new DataOutputStream(new DigestOutputStream(OutputStream.nullOutputStream(), md))
    learned.sortBy(lp => (lp.ri, lp.rj)).foreach { lp =>
      out.writeInt(lp.ri); out.writeInt(lp.rj); out.writeInt(Preference.code(lp.pref))
      out.writeLong(java.lang.Double.doubleToRawLongBits(lp.avgSim))
    }
    out.flush()
    md.digest().map("%02x".format(_)).mkString
  }

  private def pins(name: String, cfg: (RoadNetGen.Config, TrajectoryGen.Config, Seq[Double]),
                   digest: String, learned: String): Unit = {
    val (netCfg, trajCfg, bounds) = cfg
    val model = Scenario.build(spark, name, netCfg, trajCfg, bounds).model
    assert(model.digest === digest)
    assert(learnedSha(model.learned) === learned)
  }

  test("D2-lite at scale 0.07 keeps its model digest and learned preferences") {
    pins("D2-lite", Scenario.d2Config(0.07),
      "503f97cad7727490fd1a80d4264a3c8c45c58e5164995ccec1e0dadb8e069dcb",
      "00fb0c3c48c23577239bad031c47a5306e44a000d3e67710e9b028c47da3a7aa")
  }

  test("D1-lite at scale 0.1 keeps its model digest and learned preferences") {
    pins("D1-lite", Scenario.d1Config(0.1),
      "d0c4d1305bec3dbe96e045ad50b8c9baed2d872d69544212246d2849d8a33ee8",
      "b7f1a2b893a7fac09016c45f62e4dad18a5afe5152bc5e7fdb671f5aca17fe8a")
  }
}
