package s5pbench

import scala.collection.mutable.ArrayBuffer

/** Spans recorded from the benchmark's side of each public call. Spans stay
  * in memory and are written out once, when the run ends.
  *
  * `root` is the id of the outermost span a span belongs to, so all spans of
  * one call (set-up, the Spark job, one S5P call) share an identifier.
  */
final case class Span(id: Int, parent: Int, root: Int, name: String,
                      startNs: Long, endNs: Long) {
  def ns: Long = endNs - startNs
}

final class Tracer {
  private val done = ArrayBuffer.empty[Span]
  private var open: List[(Int, Int)] = Nil // (id, root), innermost first
  private var nextId = 0

  def span[A](name: String)(body: => A): A = {
    val id = nextId
    nextId += 1
    val (parent, root) = open.headOption.getOrElse((-1, id))
    open = (id, root) :: open
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      open = open.tail
      done += Span(id, parent, root, name, t0, t1)
    }
  }

  def spans: Seq[Span] = done.toSeq.sortBy(_.id)

  /** The span that ended last: right after `span(...)` returns, its own. */
  def lastEnded: Span = done.last

  /** The span's duration minus the time its direct children cover (children
    * of one span run one after another, never overlapping).
    */
  def selfNs(s: Span): Long = s.ns - done.iterator.filter(_.parent == s.id).map(_.ns).sum

  def children(s: Span): Seq[Span] = spans.filter(_.parent == s.id)

  def writeJson(path: java.nio.file.Path): Unit = {
    val lines = spans.map { s =>
      val self = selfNs(s)
      s"""{"id":${s.id},"parent":${s.parent},"root":${s.root},"name":"${s.name}",""" +
        s""""start_ns":${s.startNs},"end_ns":${s.endNs},"self_ns":$self}"""
    }
    java.nio.file.Files.createDirectories(path.getParent)
    java.nio.file.Files.write(path, lines.mkString("[\n", ",\n", "\n]\n").getBytes("UTF-8"))
  }
}
