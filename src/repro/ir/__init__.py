"""Affine program intermediate representation.

The optimizer consumes *regular scientific codes*: sequences of loop
nests whose array subscripts and loop bounds are affine functions of the
enclosing loop indices and symbolic loop-invariant constants (the exact
program class of the paper, Section 3.2.1).  This package provides:

- :class:`AffineExpr` — affine forms over named indices/parameters,
- :class:`ArrayDecl` / :class:`ArrayRef` — arrays and references
  ``L·I + o`` with exact access matrices,
- an expression AST (:mod:`repro.ir.expr`) so programs can be *executed*,
  not just analyzed,
- :class:`Loop` / :class:`LoopNest` — perfect nests,
- :mod:`repro.ir.domain` — a nest's iteration points as int64 columns,
- :class:`LoopTree` nodes — imperfect nests prior to normalization,
- :class:`Program` — arrays + nest sequence + parameters,
- :class:`ProgramBuilder` — a small DSL used by the workload models.
"""

from .affine import AffineExpr, IndexVar
from .arrays import ArrayDecl, ArrayRef
from .expr import BinOp, Call, Const, Expr, Ref, UnOp
from .loops import Loop
from .statements import Condition, Statement
from .nest import LoopNest
from .tree import LoopNode, StmtNode, TreeNode
from .program import Program
from .builder import ProgramBuilder

__all__ = [
    "AffineExpr",
    "IndexVar",
    "ArrayDecl",
    "ArrayRef",
    "Expr",
    "Const",
    "Ref",
    "BinOp",
    "UnOp",
    "Call",
    "Loop",
    "Condition",
    "Statement",
    "LoopNest",
    "TreeNode",
    "LoopNode",
    "StmtNode",
    "Program",
    "ProgramBuilder",
]
