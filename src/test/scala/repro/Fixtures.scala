package repro

import java.io.{ByteArrayOutputStream, ObjectOutputStream}

import repro.eval.Scenario

/** Scenarios that several suites read, built once per test run, and the
  * Java serialisation they compare models by.
  */
object Fixtures {
  lazy val tiny: Scenario = Scenario.tiny()

  def serialise(o: AnyRef): Array[Byte] = {
    val bytes = new ByteArrayOutputStream()
    val out = new ObjectOutputStream(bytes)
    out.writeObject(o); out.close()
    bytes.toByteArray
  }
}
