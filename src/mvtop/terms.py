"""Terms over {oplus, odot, meet}: expression trees, their evaluation on fuzzy
sets, and the descent from a term value in an ideal to a variable in it.

No command runs this code, so no command loads this module: the acceptance
criterion on term witnesses, the oracle it is checked against and the tests do.
"""

from __future__ import annotations

from .core import FuzzyFamily, FuzzySet, Record
from .errors import InputError, PreconditionError
from .maps import is_ideal

OPLUS = "oplus"
ODOT = "odot"
MEET = "meet"
VAR = "var"
_BINARY = (OPLUS, ODOT, MEET)


class Term(Record):
    """An expression tree with binary oplus/odot/meet nodes and variable leaves;
    equality, the hash and the repr go by the post-order, found without recursion."""

    __slots__ = ("op", "index", "left", "right")

    def __post_init__(self):
        op, index, left, right = self.op, self.index, self.left, self.right
        if op == VAR:
            bad_index = not isinstance(index, int) or isinstance(index, bool) or index < 0
            if bad_index or left is not None or right is not None:
                raise InputError("a variable leaf needs a nonnegative index and no children")
        elif op in _BINARY:
            if not isinstance(left, Term) or not isinstance(right, Term) or index is not None:
                raise InputError(f"a {op} node needs exactly two children")
        else:
            raise InputError(f"unknown term operation {op!r}")

    @classmethod
    def var(cls, index: int) -> "Term":
        return cls(VAR, index, None, None)

    @classmethod
    def oplus(cls, left: "Term", right: "Term") -> "Term":
        return cls(OPLUS, None, left, right)

    @classmethod
    def odot(cls, left: "Term", right: "Term") -> "Term":
        return cls(ODOT, None, left, right)

    @classmethod
    def meet(cls, left: "Term", right: "Term") -> "Term":
        return cls(MEET, None, left, right)

    @property
    def length(self) -> int:
        return len(_subterms(self))

    @property
    def arity(self) -> int:
        return 1 + max(node.index for node in _subterms(self) if node.op == VAR)

    def _signature(self) -> tuple[tuple[str, int | None], ...]:
        # every arity is fixed, so the post-order of (op, index) determines the tree
        return tuple((node.op, node.index) for node in _subterms(self))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Term) and self._signature() == other._signature()

    def __hash__(self) -> int:
        return hash(self._signature())

    def __repr__(self) -> str:
        """Postfix notation, e.g. Term(x0 x1 oplus) for Term.oplus(Term.var(0), Term.var(1))."""
        return f"Term({' '.join(f'x{i}' if op == VAR else op for op, i in self._signature())})"


def _subterms(term: Term) -> list[Term]:
    """Every node of the term tree, children before parents, from a walk on an
    explicit stack, so a deep term does not hit the recursion limit."""
    order, stack = [], [term]
    while stack:
        node = stack.pop()
        order.append(node)
        if node.op != VAR:
            stack += (node.left, node.right)
    return order[::-1]


def _subterm_values(term: Term, args: Sequence[FuzzySet]) -> dict[int, FuzzySet]:
    """The value of every subterm with the pointwise chain operations, keyed by
    node identity (hashing every node would cost O(n²)), from one post-order pass."""
    if term.arity > len(args):
        raise InputError(
            f"term uses {term.arity} variables but only {len(args)} arguments were given"
        )
    first = args[0]
    for a in args[1:]:
        first._same_space(a)
    values: dict[int, FuzzySet] = {}
    for node in _subterms(term):
        if node.op == VAR:
            value = args[node.index]
        else:
            lhs, rhs = values[id(node.left)], values[id(node.right)]
            if node.op == OPLUS:
                value = lhs.oplus(rhs)
            elif node.op == ODOT:
                value = lhs.odot(rhs)
            else:
                value = lhs.meet(rhs)
        values[id(node)] = value
    return values


def eval_term(term: Term, args: Sequence[FuzzySet]) -> FuzzySet:
    """Evaluate the term with the pointwise chain operations."""
    return _subterm_values(term, args)[id(term)]


def term_witness(
    term: Term, args: Sequence[FuzzySet], point: int, family: FuzzyFamily
) -> int:
    """Descend the term to a variable that is in the family and positive at the point.

    At an oplus node both subterm values lie in the ideal (downward closure),
    so the descent follows a side positive at the point; at odot/meet nodes
    both sides are positive there and the descent follows a side whose value
    is in the family, preferring the left one.  A multiplicative node where
    neither side lies in the family is outside this operation's domain: that
    decomposition property belongs to maximal covers, not to every ideal.
    Every subterm is evaluated once, before the descent.
    """
    if not is_ideal(family):
        raise PreconditionError("the family is not an ideal")
    values = _subterm_values(term, args)
    value = values[id(term)]
    if not 0 <= point < value.carrier.size:
        raise InputError(f"{point!r} is not a valid point index")
    if value not in family:
        raise PreconditionError("the term value is not a member of the ideal")
    if value.values[point] == 0:
        raise PreconditionError("the term value vanishes at the given point")

    node = term
    while node.op != VAR:
        left_value = values[id(node.left)]
        right_value = values[id(node.right)]
        if node.op == OPLUS:
            node = node.left if left_value.values[point] > 0 else node.right
        else:
            if left_value in family:
                node = node.left
            elif right_value in family:
                node = node.right
            else:
                raise PreconditionError(
                    f"neither side of a {node.op} node lies in the ideal; "
                    "the descent needs the maximal-cover decomposition property"
                )
    j = node.index
    assert args[j] in family and args[j].values[point] > 0
    return j
