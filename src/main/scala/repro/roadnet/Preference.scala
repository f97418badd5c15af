package repro.roadnet

/** A travel-cost feature a driver may minimise — the "master" dimension of a
  * routing preference (Section V-A of the paper).
  */
sealed trait CostType extends EdgeCost with Serializable {
  /** Stable column index in the preference feature space (0..2). */
  def id: Int
  def name: String
}

object CostType {
  /** Distance. */
  case object DI extends CostType { val id = 0; def of(e: Edge): Double = e.dist; val name = "DI" }
  /** Travel time. */
  case object TT extends CostType { val id = 1; def of(e: Edge): Double = e.tt;   val name = "TT" }
  /** Fuel consumption. */
  case object FC extends CostType { val id = 2; def of(e: Edge): Double = e.fc;   val name = "FC" }

  val all: Seq[CostType] = Seq(DI, TT, FC)

  def byId(i: Int): CostType = all(i)
}

/** A routing preference vector ⟨master, slave⟩ (Section V-A): minimise the
  * master cost feature while preferring edges whose road type matches the
  * optional slave feature.
  *
  * Records that Spark encodes carry a preference in the flat form
  * (`masterId`, `slaveRt`); [[Preference.fromIds]] decodes it.
  */
final case class Preference(master: CostType, slave: Option[Int]) {
  def masterId: Int = master.id
  /** The slave road type, or -1 for none. */
  def slaveRt: Int = slave.getOrElse(-1)
  override def toString: String = s"⟨${master.name}, ${slave.map("TP" + _).getOrElse("-")}⟩"
}

object Preference {
  /** Decode the flat form: a `slaveRt` of -1 means no slave feature, a
    * `masterId` of -1 a null preference.
    */
  def fromIds(masterId: Int, slaveRt: Int): Option[Preference] =
    if (masterId < 0) None
    else Some(Preference(CostType.byId(masterId), if (slaveRt < 0) None else Some(slaveRt)))

  /** Encode to the flat form; inverse of [[fromIds]]. */
  def toIds(p: Option[Preference]): (Int, Int) = p.fold((-1, -1))(q => (q.masterId, q.slaveRt))

  /** The compact code `masterId * 7 + slaveRt` (slaveRt 0 for none), 0..20
    * for the slave road types 1..6; codes ascend with (masterId, slaveRt).
    */
  def code(p: Preference): Int = {
    val rt = p.slaveRt
    if (rt == 0 || rt < -1 || rt > 6) throw new IllegalArgumentException(s"no code for $p: slave road types are 1..6")
    p.masterId * 7 + math.max(rt, 0)
  }

  /** Inverse of [[code]]. */
  def fromCode(c: Int): Preference = Preference(CostType.byId(c / 7), if (c % 7 == 0) None else Some(c % 7))
}
