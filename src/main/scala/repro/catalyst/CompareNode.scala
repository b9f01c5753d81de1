package repro.catalyst

import org.apache.spark.sql.catalyst.expressions.{Attribute, AttributeReference, AttributeSet}
import org.apache.spark.sql.catalyst.plans.logical.{LogicalPlan, UnaryNode}
import repro.core.{CompareOutput, CompareSpec, PrunedTopK, TopK}

/** The COMPARE logical operator Φ (§3): carries the comparative expression,
  * an optional fused top-k and the configuration of Φp (§5.3), which the
  * Fig. 9b ablation stages and the Fig. 11 sweep set. Output attributes are
  * fixed at construction so they survive `transform`/`copy` without changing
  * `exprId`s.
  */
case class CompareNode(
    spec: CompareSpec,
    topK: Option[TopK],
    child: LogicalPlan,
    override val output: Seq[Attribute],
    cfg: PrunedTopK.Config)
  extends UnaryNode {

  override protected def withNewChildInternal(newChild: LogicalPlan): CompareNode =
    copy(child = newChild)

  // The node holds no Catalyst expressions over the child (the spec is
  // by-name), so it is resolved as soon as the child is.
  override lazy val resolved: Boolean = childrenResolved

  // All output attributes are produced here, not forwarded from the child —
  // without this, CheckAnalysis reports them "missing from input".
  override def producedAttributes: AttributeSet = AttributeSet(output)

  // The spec references child columns by name; surface them as real
  // references so column pruning keeps exactly these columns alive.
  override lazy val references: AttributeSet = CompareNode.references(spec, child)

  override def maxRows: Option[Long] = topK.map(_.k.toLong)

  override def simpleString(maxFields: Int): String =
    s"Compare ${spec.toString}${topK.map(k => s" TOP ${k.k} ${if (k.ascending) "ASC" else "DESC"}").getOrElse("")}" +
      (if (cfg == PrunedTopK.Config()) "" else s" $cfg")
}

object CompareNode {
  def apply(spec: CompareSpec, topK: Option[TopK], child: LogicalPlan,
            cfg: PrunedTopK.Config = PrunedTopK.Config()): CompareNode =
    new CompareNode(spec, topK, child, defaultOutput(spec), cfg)

  /** The columns of `child` that `spec` reads. */
  def references(spec: CompareSpec, child: LogicalPlan): AttributeSet = AttributeSet(
    child.output.filter(a => spec.referencedColumns.exists(_.equalsIgnoreCase(a.name))))

  def defaultOutput(spec: CompareSpec): Seq[Attribute] =
    CompareOutput.schema(spec).map(f => AttributeReference(f.name, f.dataType, f.nullable)())
}
