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
  * optional slave feature. Records and APIs carry a `Preference`, and an
  * `Option[Preference]` where a region edge may have none (the null
  * preference). Where an `Int` must stand for one (a Spark-encoded trip
  * blueprint, the model's per-edge byte, learning's score table and the
  * router's vote), it is [[Preference.code]].
  */
final case class Preference(master: CostType, slave: Option[Int]) {
  def masterId: Int = master.id
  /** The slave road type, or -1 for none. */
  def slaveRt: Int = slave.getOrElse(-1)
  override def toString: String = s"⟨${master.name}, ${slave.map("TP" + _).getOrElse("-")}⟩"
}

object Preference {
  /** Road types usable as slave features (the 6 OSM classes). */
  private val SlaveRts = 1 to 6

  /** The compact code `masterId * 7 + slave` (0 for no slave), 0..20; codes
    * ascend with (masterId, slave road type), no slave first.
    */
  def code(p: Preference): Int = p.slave match {
    case None                              => p.masterId * 7
    case Some(rt) if SlaveRts.contains(rt) => p.masterId * 7 + rt
    case _ => throw new IllegalArgumentException(s"no code for $p: slave road types are 1..6")
  }

  /** Inverse of [[code]]. */
  def fromCode(c: Int): Preference = Preference(CostType.byId(c / 7), if (c % 7 == 0) None else Some(c % 7))

  /** The 21 preferences, in [[code]] order: `all(code(p)) == p`. */
  val all: IndexedSeq[Preference] =
    for (c <- CostType.all.toIndexedSeq; sl <- None +: SlaveRts.map(Some(_))) yield Preference(c, sl)
}
