package repro.eval

import repro.core.{Clustering, PreferenceTransfer}
import repro.roadnet.RoadNetwork
import repro.traj.Trip
import repro.util.Geo

/** Formatters / runners producing each evaluation table, shared by the
  * `Reproduce` job and the bench suites. Every function returns the
  * printable table plus the raw numbers for assertions.
  */
object Tables {

  // ------------------------------------------------------------- Table II

  final case class Histo(bucket: String, n: Long, pct: Double)

  /** Trips per distance bucket; trips outside the bounds get a bucket of their own. */
  def tableII(net: RoadNetwork, trips: Seq[Trip], bounds: Seq[Double], label: String): (Seq[Histo], String) = {
    val counts = Evaluator.distanceHistogram(net, trips, bounds)
    val total = counts.values.sum.toDouble
    val hs = (buckets(bounds) ++ Seq(Evaluator.OutOfRange).filter(counts.contains)).map { b =>
      val n = counts.getOrElse(b, 0L)
      Histo(b, n, 100.0 * n / math.max(1.0, total))
    }
    val sb = new StringBuilder
    sb ++= s"Table II ($label) — trajectory distance distribution\n"
    sb ++= f"${"Distance (km)"}%-16s" + hs.map(h => f"${h.bucket}%12s").mkString + "\n"
    sb ++= f"${"# Trajectories"}%-16s" + hs.map(h => f"${h.n}%12d").mkString + "\n"
    sb ++= f"${"Percentage (%)"}%-16s" + hs.map(h => f"${h.pct}%12.1f").mkString + "\n"
    (hs, sb.toString)
  }

  def buckets(bounds: Seq[Double]): Seq[String] =
    bounds.sliding(2).map { p => s"(${fmt(p.head)},${fmt(p(1))}]" }.toSeq
  private def fmt(d: Double): String = if (d == d.toLong.toDouble) d.toLong.toString else d.toString

  // ------------------------------------------------------------- Table IV

  final case class SizeBucket(bucket: String, n: Int, pct: Double, maxDiameterKm: Double)

  /** Region convex-hull areas (km²) and max diameters (km), bucketed.
    * The first bucket is closed below (includes area-0 regions: singleton
    * or collinear vertex sets), so every region is counted exactly once.
    */
  def tableIV(net: RoadNetwork, regions: Seq[Clustering.Region],
              areaBounds: Seq[Double], label: String): (Seq[SizeBucket], String) = {
    val stats = regions.map { r =>
      val pts = r.members.toSeq.map { v => val vv = net.vertices(v); (vv.x, vv.y) }
      (Geo.polygonArea(Geo.convexHull(pts)), Geo.diameter(pts))
    }
    val order = buckets(areaBounds) :+ s">${fmt(areaBounds.last)}"
    val ranges = areaBounds.sliding(2).toSeq.map(p => (p.head, p(1))) :+
      ((areaBounds.last, Double.PositiveInfinity))
    val total = math.max(1, stats.size).toDouble
    val out = order.zip(ranges).zipWithIndex.map { case ((b, (lo, hi)), k) =>
      val in = stats.filter(s => (s._1 > lo || (k == 0 && s._1 >= 0)) && s._1 <= hi)
      SizeBucket(b, in.size, 100.0 * in.size / total, if (in.isEmpty) 0.0 else in.map(_._2).max)
    }
    val sb = new StringBuilder
    sb ++= s"Table IV ($label) — region sizes (convex-hull area km² / max diameter km)\n"
    sb ++= f"${"Size (km²)"}%-14s" + out.map(o => f"${o.bucket}%16s").mkString + "\n"
    sb ++= f"${label}%-14s" + out.map(o => f"${s"${o.n} (" + f"${o.pct}%.1f" + "%)"}%16s").mkString + "\n"
    sb ++= f"${"max diam"}%-14s" + out.map(o => f"${f"${o.maxDiameterKm}%.1f"}%16s").mkString + "\n"
    (out, sb.toString)
  }

  // ------------------------------------------------- Fig 9 / Table III

  def fig9(tFeats: IndexedSeq[PreferenceTransfer.REdgeFeat], amrDefault: Double, amrs: Seq[Double])
      : (Seq[(Int, TransferEval.HoldoutResult)], Seq[(Double, TransferEval.HoldoutResult)], String) = {
    val parts = (1 to 4).map(k => k -> TransferEval.holdout(tFeats, k, amrDefault))
    val amrSweep = amrs.map(a => a -> TransferEval.holdout(tFeats, 4, a))
    val sb = new StringBuilder
    sb ++= "Fig 9(a) — transfer accuracy vs #T-edge training partitions (amr=" + amrDefault + ")\n"
    sb ++= "  parts  labelled  heldout  accuracy\n"
    parts.foreach { case (k, r) =>
      sb ++= f"  ${k}X     ${r.nLabelled}%8d ${r.nHeldOut}%8d  ${r.accuracy}%.3f\n"
    }
    sb ++= "Fig 9(b) — amr sweep (4 partitions labelled)\n"
    sb ++= "  amr   accuracy  null-rate  nnz      ms\n"
    amrSweep.foreach { case (a, r) =>
      sb ++= f"  $a%.1f   ${r.accuracy}%.3f     ${r.nullRate}%.3f     ${r.nnz}%-8d ${r.millis}%d\n"
    }
    (parts, amrSweep, sb.toString)
  }

  // --------------------------------------- Figs 10–13: accuracy & latency

  final case class AccRow(algo: String, key: String, sim1: Double, sim2: Double, micros: Double, n: Long)

  def accuracyTables(scenario: Scenario, algos: Seq[String]): (Seq[AccRow], Seq[AccRow], String) = {
    val rows = Evaluator.evaluate(scenario.net, scenario.model.index,
      scenario.routers.filter(r => algos.contains(r.name)), scenario.test)
    val byDist = Evaluator.byDistance(rows, scenario.bounds)
    val byCat = Evaluator.byCategory(rows)

    val sb = new StringBuilder
    def block(title: String, keys: Seq[String], data: Seq[AccRow], field: AccRow => Double, f: String): Unit = {
      sb ++= title + "\n"
      sb ++= f"${"algo"}%-10s" + keys.map(k => f"$k%14s").mkString + "\n"
      algos.foreach { a =>
        val cells = keys.map { k =>
          data.find(r => r.algo == a && r.key == k)
            .map(r => f.format(field(r))).getOrElse("-")
        }
        sb ++= f"$a%-10s" + cells.map(c => f"$c%14s").mkString + "\n"
      }
    }
    val distKeys = buckets(scenario.bounds)
    val catKeys = Seq("InRegion", "InOutRegion", "OutRegion")
    block(s"Accuracy Eq.1 by distance (${scenario.name})", distKeys, byDist, _.sim1, "%.3f")
    block(s"Accuracy Eq.4 by distance (${scenario.name})", distKeys, byDist, _.sim2, "%.3f")
    block(s"Accuracy Eq.1 by category (${scenario.name})", catKeys, byCat, _.sim1, "%.3f")
    block(s"Latency µs by distance (${scenario.name})", distKeys, byDist, _.micros, "%.0f")
    block(s"Latency µs by category (${scenario.name})", catKeys, byCat, _.micros, "%.0f")
    (byDist, byCat, sb.toString)
  }

  /** The mean of `field` per algorithm over `rows`, weighted by query count. */
  def overall(rows: Seq[AccRow], field: AccRow => Double): Map[String, Double] =
    rows.groupBy(_.algo).view.mapValues { rs =>
      val n = rs.map(_.n).sum.toDouble
      if (n == 0) 0.0 else rs.map(r => field(r) * r.n).sum / n
    }.toMap
}
