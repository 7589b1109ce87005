package s5pbench

import repro.core.Edge
import repro.gen.GraphGen

/** One benchmark input: a registry analog regenerated from a seed, a k, and
  * optionally the sparse-id bijection applied to every endpoint.
  *
  * @param graph        registry name whose |V|, |E| and generator are used
  * @param registrySeed the seed the registry itself uses for `graph`; the
  *                     default when no seed is given
  */
final case class Workload(name: String, graph: String, k: Int, registrySeed: Long,
                          sparseIds: Boolean,
                          gen: (Long, Long, Long) => IndexedSeq[Edge]) {

  def generate(seed: Long): IndexedSeq[Edge] = {
    val spec = GraphGen.byName(graph)
    val base = gen(spec.numVertices, spec.numEdges, seed)
    if (sparseIds) base.map(e => Edge(SparseIds(e.src), SparseIds(e.dst))) else base
  }
}

object Workloads {
  val all: Seq[Workload] = Seq(
    // TW analog: hubs over communities, the most clusters per partition.
    Workload("social-k256", "TW", 256, 12L, sparseIds = false,
      (v, e, s) => GraphGen.social(v, e, s)),
    // IT analog: strong locality, the game is ~2% of a call.
    Workload("web-k64", "IT", 64, 15L, sparseIds = false,
      (v, e, s) => GraphGen.community(v, e, s)),
    // The social-k256 stream with sparse 63-bit ids: isolates id handling.
    Workload("social-k256-sparse-ids", "TW", 256, 12L, sparseIds = true,
      (v, e, s) => GraphGen.social(v, e, s)),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(
        s"unknown workload '$name' (known: ${all.map(_.name).mkString(", ")})"))
}

/** A fixed bijection on [0, 2^63): dense generator ids become sparse,
  * user-id-like ids without collisions. Each step is invertible modulo
  * 2^63 (odd multiplier, right xorshift), so distinct ids stay distinct.
  */
object SparseIds {
  private val Mask = Long.MaxValue

  def apply(x: Long): Long = {
    var z = ((x + 1) * 0x9E3779B97F4A7C15L) & Mask
    z ^= z >>> 29
    z = (z * 0xBF58476D1CE4E5B9L) & Mask
    z ^= z >>> 32
    z
  }
}
