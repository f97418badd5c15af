package repro.jobs

import repro.core.PreferenceLearning
import repro.eval.{PathSim, Scenario}
import repro.roadnet.{Preference, RoadNetGen}
import repro.traj.TrajectoryGen

/** Scratch diagnostics for tuning the synthetic demand and verifying
  * preference recovery (not part of the reproduction tables).
  */
object Diag {

  def analyse(name: String, mk: Double => (RoadNetGen.Config, TrajectoryGen.Config, Seq[Double]),
              scale: Double): Unit = {
    val (netCfg, trajCfg, _) = mk(scale)
    val sc = Scenario.build(name, netCfg, trajCfg, Seq(0, 2, 5, 10, 35))
    val net = sc.net
    val (_, specs) = TrajectoryGen.specs(net, trajCfg)
    val specOf = specs.map(s => s.id -> s).toMap
    val learnedMap = PreferenceLearning.byKey(sc.model.learned)
    val vr = sc.model.index.vertexRegion
    val router = sc.model.router(net)

    var direct = 0; var directMatch = 0; var multi = 0; var noRegion = 0
    var simDirectMatch = 0.0; var simDirectMiss = 0.0; var missN = 0
    var simMulti = 0.0
    val regionPathLens = scala.collection.mutable.ArrayBuffer.empty[Int]
    val missByClass = scala.collection.mutable.Map.empty[Preference, scala.collection.mutable.ArrayBuffer[Double]]
    val missSims = scala.collection.mutable.ArrayBuffer.empty[Double]
    sc.test.foreach { t =>
      val s = t.path.head; val d = t.path.last
      val sp = specOf(t.id)
      (vr.get(s), vr.get(d)) match {
        case (Some(rs), Some(rd)) if rs != rd =>
          val key = (math.min(rs, rd), math.max(rs, rd))
          val sim = PathSim.sim1(net, t.path.toVector, router.route(s, d))
          if (sc.model.index.edges.contains(key)) {
            direct += 1
            val lp = learnedMap.get(key)
            val m = lp.exists(_.pref == sp.pref)
            if (m) { directMatch += 1; simDirectMatch += sim }
            else {
              simDirectMiss += sim; missN += 1; missSims += sim
              missByClass.getOrElseUpdate(sp.pref, scala.collection.mutable.ArrayBuffer.empty) += sim
            }
          } else {
            multi += 1; simMulti += sim
            router.regionPath(rs, rd).foreach(rp => regionPathLens += rp.length)
          }
        case (Some(_), Some(_)) => direct += 0 // same region
        case _ => noRegion += 1
      }
    }
    println(s"=== $name scale=$scale: test=${sc.test.size} tEdges=${sc.model.nTEdges} bEdges=${sc.model.nBEdges} regions=${sc.model.regions.size}")
    println(f"direct-edge queries: $direct (prefMatch=$directMatch, ${100.0 * directMatch / math.max(1, direct)}%.0f%%) " +
      f"simMatch=${simDirectMatch / math.max(1, directMatch)}%.3f simMiss=${simDirectMiss / math.max(1, missN)}%.3f")
    println(f"multi-hop queries:   $multi  sim=${simMulti / math.max(1, multi)}%.3f  " +
      s"regionPathLen p50=${if (regionPathLens.nonEmpty) regionPathLens.sorted.apply(regionPathLens.size / 2) else 0}")
    println(s"no-region-endpoint queries: $noRegion")
    if (missSims.nonEmpty) {
      val s = missSims.sorted
      println(f"miss sims: p10=${s((s.size - 1) / 10)}%.2f p50=${s(s.size / 2)}%.2f p90=${s((s.size * 9) / 10)}%.2f frac>0.9=${s.count(_ > 0.9).toDouble / s.size}%.2f")
      println("miss by spec class: " + missByClass.toSeq.sortBy(-_._2.size).take(8).map { case (k, xs) =>
        f"$k: n=${xs.size} avg=${xs.sum / xs.size}%.2f"
      }.mkString("  "))
    }

    // learned preference distribution vs the spec preference distribution
    def hist(ps: Seq[Preference]): String =
      ps.groupBy(identity).view.mapValues(_.size).toSeq.sortBy(-_._2).take(8)
        .map { case (p, n) => s"$p=$n" }.mkString(" ")
    println("learned prefs:  " + hist(sc.model.learned.map(_.pref)))
    println("spec prefs:     " + hist(specs.map(_.pref)))
    // fragment lengths of T-edge path sets
    val fragLens = sc.model.index.edges.values.filter(_.isT).flatMap(_.paths.map(_.verts.length)).toSeq
    println(s"T-edge fragment vertex counts: p50=${fragLens.sorted.apply(fragLens.size / 2)} " +
      s"p90=${fragLens.sorted.apply((fragLens.size * 9) / 10)}")
    // sample of missed direct queries
    var shown = 0
    sc.test.iterator.takeWhile(_ => shown < 8).foreach { t =>
      val s = t.path.head; val d = t.path.last
      val sp = specOf(t.id)
      (vr.get(s), vr.get(d)) match {
        case (Some(rs), Some(rd)) if rs != rd =>
          val key = (math.min(rs, rd), math.max(rs, rd))
          learnedMap.get(key).foreach { lp =>
            if (sp.pref != lp.pref) {
              val e = sc.model.index.edges(key)
              println(f"  miss: spec=${sp.pref} learned=${lp.pref} " +
                f"avgSim=${lp.avgSim}%.2f nPaths=${e.paths.size} counts=${e.paths.map(_.count).mkString(",")} " +
                s"fragLens=${e.paths.map(_.verts.length).mkString(",")}")
              shown += 1
            }
          }
        case _ => ()
      }
    }

    // where does Fastest stand on the same query classes?
    val fast = new repro.baselines.Baselines.Fastest(net)
    def avgSim(f: repro.traj.Trip => Boolean): Double = {
      val ts = sc.test.filter(f)
      if (ts.isEmpty) 0.0
      else ts.map(t => PathSim.sim1(net, t.path.toVector, fast.route(0, t.path.head, t.path.last))).sum / ts.size
    }
    println(f"Fastest sim overall: ${avgSim(_ => true)}%.3f")
  }

  def main(args: Array[String]): Unit = {
    analyse("D2-diag", Scenario.d2Config, 0.25)
    analyse("D1-diag", Scenario.d1Config, 0.25)
  }
}
