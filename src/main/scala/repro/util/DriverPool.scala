package repro.util

import java.util.concurrent.{ConcurrentSkipListMap, Executors}
import java.util.concurrent.atomic.AtomicInteger

/** Runs independent work items on a fixed pool of driver threads, for
  * stages whose work is CPU-bound searches against one in-memory network
  * (preference learning, B-edge paths, evaluation): nothing is serialised
  * or scheduled, and each idle thread takes the next item, so uneven items
  * still balance. The pool sizes itself: every stage runs on [[Threads]],
  * one thread per core of the JVM.
  */
object DriverPool {

  /** The pool size of every stage: the cores this JVM may use. */
  val Threads: Int = Runtime.getRuntime.availableProcessors

  /** `f` of every item, in item order, computed on up to `threads` threads.
    * After a failure of `f` no thread takes a new item; the items already
    * running finish, and the failure of the lowest-index item is rethrown.
    * Items are taken in index order, so that is the lowest failing item of
    * all, whatever the threads' timing.
    */
  def map[A, B](items: IndexedSeq[A], threads: Int)(f: A => B): IndexedSeq[B] = {
    val out = new Array[Any](items.size)
    val next = new AtomicInteger(0)
    val failures = new ConcurrentSkipListMap[Int, Throwable]()
    val drain: Runnable = () => {
      var i = next.getAndIncrement()
      while (i < items.size) {
        try out(i) = f(items(i))
        catch { case e: Throwable => failures.put(i, e); next.set(items.size) }
        i = next.getAndIncrement()
      }
    }
    val n = math.max(1, math.min(threads, items.size))
    val pool = Executors.newFixedThreadPool(n)
    try Seq.fill(n)(pool.submit(drain)).foreach(_.get())
    finally pool.shutdown()
    if (!failures.isEmpty) throw failures.firstEntry.getValue
    out.toIndexedSeq.asInstanceOf[IndexedSeq[B]]
  }
}
