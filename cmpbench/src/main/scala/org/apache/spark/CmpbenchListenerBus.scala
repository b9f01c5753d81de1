package org.apache.spark

/** Narrow bridge to the `private[spark]` listener bus: the traced run reads
  * its listener's counters only after every event of the measured call has
  * been delivered.
  */
object CmpbenchListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
