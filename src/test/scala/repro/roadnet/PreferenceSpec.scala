package repro.roadnet

import repro.SparkSpec

/** The flat (masterId, slaveRt) codec of [[Preference]]. */
class PreferenceSpec extends SparkSpec {

  private val all = for (c <- CostType.all; s <- None +: (1 to 6).map(Some(_))) yield Preference(c, s)

  test("fromIds inverts (masterId, slaveRt) for all 21 preferences") {
    assert(all.distinct.size === 21)
    all.foreach { p =>
      assert(Preference.fromIds(p.masterId, p.slaveRt) === Some(p))
      assert(Preference.toIds(Some(p)) === ((p.masterId, p.slaveRt)))
    }
  }

  test("a master of -1 decodes to the null preference") {
    for (rt <- -1 to 6) assert(Preference.fromIds(-1, rt) === None)
    assert(Preference.toIds(None) === ((-1, -1)))
  }
}
