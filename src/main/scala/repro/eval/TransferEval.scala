package repro.eval

import repro.core.{L2RPipeline, PreferenceTransfer}
import repro.core.PreferenceTransfer.REdgeFeat
import repro.roadnet.Preference

/** The Figure 9 experiment: accuracy of preference transfer, evaluated by
  * 5-fold style hold-out over T-edges (the paper's "partitions"). One
  * partition's learned preferences are hidden (treated as B-edges) and
  * predicted from 1, 2, 3 or 4 of the remaining partitions; accuracy is the
  * Jaccard similarity of the predicted vs. ground-truth feature sets.
  */
object TransferEval {

  final case class HoldoutResult(accuracy: Double, nullRate: Double, millis: Long, nnz: Long,
                                 nLabelled: Int, nHeldOut: Int)

  /** Jaccard similarity of two preferences' feature sets {master, slave}
    * ([[PreferenceTransfer.columns]]).
    */
  def prefJaccard(pred: Preference, gt: Preference): Double = {
    val a = PreferenceTransfer.columns(pred); val b = PreferenceTransfer.columns(gt)
    (a intersect b).size.toDouble / (a union b).size
  }

  /** The T-edges are split into this many partitions. */
  private val NParts = 5
  /** Seed of the partition draw. */
  private val PartitionSeed = 17L

  /** Split the T-edge features into `NParts` seeded partitions, hold out
    * partition 0, label with partitions 1..nPartsUsed, transfer with amr and
    * the fit's μ₁, μ₂ (`L2RPipeline.Params()`), and score the held-out
    * preferences. T-edges in unused partitions are excluded (the paper
    * scales the training set 1X → 4X).
    */
  def holdout(tFeats: IndexedSeq[REdgeFeat], nPartsUsed: Int, amr: Double): HoldoutResult = {
    require(tFeats.forall(_.isT), "holdout expects learned T-edge features")
    val rnd = new scala.util.Random(PartitionSeed)
    val part = tFeats.map(_ => rnd.nextInt(NParts))
    val heldOut = tFeats.zip(part).filter(_._2 == 0).map(_._1)
    val labelled = tFeats.zip(part).filter { case (_, p) => p >= 1 && p <= nPartsUsed }.map(_._1)

    // held-out edges participate unlabelled (preference masked)
    val feats = (labelled ++ heldOut.map(_.copy(label = None))).toIndexedSeq
    val fit = L2RPipeline.Params()
    val res = PreferenceTransfer.transfer(feats, amr, fit.mu1, fit.mu2)

    val scores = heldOut.zipWithIndex.map { case (gt, k) =>
      val i = labelled.size + k
      PreferenceTransfer.decode(res.yHat(i)).fold(0.0)(prefJaccard(_, gt.label.get))
    }
    val acc = if (scores.isEmpty) 0.0 else scores.sum / scores.size
    val nulls = heldOut.zipWithIndex.count { case (_, k) =>
      PreferenceTransfer.decode(res.yHat(labelled.size + k)).isEmpty
    }
    HoldoutResult(acc, if (heldOut.isEmpty) 0.0 else nulls.toDouble / heldOut.size,
      res.solveMillis, res.adjacencyNnz, labelled.size, heldOut.size)
  }
}
