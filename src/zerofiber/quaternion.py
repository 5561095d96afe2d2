"""Quaternions with cyclotomic components: the arithmetic of the
quaternionic row reduction ``linalg.quat_rref_key``.

H is modelled as C + jC: q = z1 + j*z2 with z1, z2 in a cyclotomic field.
Left multiplication by q on the right C-basis (1, j) is the 2x2 matrix
[[z1, -conj(z2)], [z2, conj(z1)]], which identifies unit quaternions with
SU(2): a group element [[a, b], [c, d]] is the quaternion (a, c).
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import Cyc


class Quaternion:
    __slots__ = ("z1", "z2")

    def __init__(self, z1: Cyc, z2: Cyc):
        self.z1 = z1
        self.z2 = z2

    @staticmethod
    def zero(m: int = 1) -> "Quaternion":
        return Quaternion(Cyc.zero(m), Cyc.zero(m))

    @staticmethod
    def one(m: int = 1) -> "Quaternion":
        return Quaternion(Cyc.one(m), Cyc.zero(m))

    def is_zero(self) -> bool:
        return self.z1.is_zero() and self.z2.is_zero()

    def conj(self) -> "Quaternion":
        return Quaternion(self.z1.conj(), -self.z2)

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.z1 + other.z1, self.z2 + other.z2)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.z1 - other.z1, self.z2 - other.z2)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.z1, -self.z2)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            # (a1 + j a2)(b1 + j b2) = (a1 b1 - conj(a2) b2) + j (conj(a1) b2 + a2 b1)
            a1, a2, b1, b2 = self.z1, self.z2, other.z1, other.z2
            return Quaternion(a1 * b1 - a2.conj() * b2, a1.conj() * b2 + a2 * b1)
        if isinstance(other, (int, Fraction, Cyc)):
            # right action by a complex/rational scalar: (z1 + j z2) c = z1 c + j (z2 c)
            return Quaternion(self.z1 * other, self.z2 * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Quaternion(self.z1 * other, self.z2 * other)
        return NotImplemented

    def norm(self) -> Cyc:
        """conj(q) * q = |z1|^2 + |z2|^2: a non-negative real cyclotomic, not
        always rational (q = 1 - zeta_8 has norm 2 - sqrt 2)."""
        return self.z1 * self.z1.conj() + self.z2 * self.z2.conj()

    def inverse(self) -> "Quaternion":
        n = self.norm()
        if n.is_zero():
            raise ZeroDivisionError("zero quaternion")
        # the norm is real, hence central: q^-1 = conj(q) n^-1
        return self.conj() * n.inverse()

    def __eq__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return self.z1 == other.z1 and self.z2 == other.z2

    def __hash__(self):
        return hash((self.z1, self.z2))

    def __repr__(self):
        return f"Quaternion({self.z1}, j*{self.z2})"
