"""Coefficient fields: exact rationals and prime fields.

Scalars are plain Python values so the polynomial engine stays cheap. In
characteristic 0 a value is an int when it is an integer and a normalized
`fractions.Fraction` otherwise, never a float and never a Fraction with
denominator 1, so integral inputs cost int arithmetic alone. In
characteristic p a value is an int in [0, p). A Field object carries the
arithmetic of polynomials. The one exception is the reduction kernel of
`stdbasis`: it reads each coefficient as an integer numerator over a
denominator (an int's denominator is 1), reduces on the integers, and hands
back values in this form, so no gcd runs per term.
"""

from fractions import Fraction

from .errors import DivisionByZero, InvalidCharacteristic

DEFAULT_PRIME = 32003  # classical default modulus for modular CAS runs


def _is_prime(n):
    """Deterministic Miller-Rabin, valid far beyond 64-bit inputs."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Shared interface; see RationalField and PrimeField."""

    characteristic = None

    def __eq__(self, other):
        return isinstance(other, Field) and self.characteristic == other.characteristic

    def __hash__(self):
        return hash(("germkit.Field", self.characteristic))


def _canonical(q):
    """A rational in canonical form: the int itself when it is integral."""
    return q.numerator if q.denominator == 1 else q


class RationalField(Field):
    """The rationals: an integral value is an int, any other a Fraction.

    Fraction keeps its values normalized (gcd 1, positive denominator), and
    every operation returns an integral result as an int, so the form of a
    value is canonical and equal values compare, hash and print alike. Two
    ints add, subtract and multiply as ints; div and inv build a Fraction,
    never int / int, so no float appears.
    """

    characteristic = 0
    zero = 0
    one = 1

    def coerce(self, x):
        if isinstance(x, int):
            return int(x)  # a bool becomes 0 or 1
        if isinstance(x, Fraction):
            return _canonical(x)
        raise TypeError("cannot coerce %r into QQ" % (x,))

    def add(self, a, b):
        s = a + b
        return s if s.__class__ is int else _canonical(s)

    def sub(self, a, b):
        s = a - b
        return s if s.__class__ is int else _canonical(s)

    def mul(self, a, b):
        s = a * b
        return s if s.__class__ is int else _canonical(s)

    def div(self, a, b):
        if not b:
            raise DivisionByZero("division by zero in QQ")
        return _canonical(Fraction(a, b))

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise DivisionByZero("inverse of zero in QQ")
        return _canonical(Fraction(1, a))

    def to_str(self, a):
        return str(a)

    def __repr__(self):
        return "QQ"


class PrimeField(Field):
    """F_p for a prime p; scalars are ints reduced into [0, p)."""

    def __init__(self, p):
        if not isinstance(p, int) or not _is_prime(p):
            raise InvalidCharacteristic("characteristic must be 0 or a prime, got %r" % (p,))
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, x):
        p = self.characteristic
        if isinstance(x, int):
            return x % p
        if isinstance(x, Fraction):
            den = x.denominator % p
            if den == 0:
                raise DivisionByZero("denominator divisible by %d" % p)
            return x.numerator * pow(den, p - 2, p) % p
        raise TypeError("cannot coerce %r into F_%d" % (x, self.characteristic))

    def add(self, a, b):
        return (a + b) % self.characteristic

    def sub(self, a, b):
        return (a - b) % self.characteristic

    def mul(self, a, b):
        return a * b % self.characteristic

    def div(self, a, b):
        p = self.characteristic
        if b % p == 0:
            raise DivisionByZero("division by zero in F_%d" % p)
        return a * pow(b, p - 2, p) % p

    def neg(self, a):
        return -a % self.characteristic

    def inv(self, a):
        p = self.characteristic
        if a % p == 0:
            raise DivisionByZero("inverse of zero in F_%d" % p)
        return pow(a, p - 2, p)

    def to_str(self, a):
        return str(a)

    def __repr__(self):
        return "F_%d" % self.characteristic


QQ = RationalField()

_prime_fields = {}


def field_for(characteristic):
    """Field of the given characteristic (0 or a prime)."""
    if characteristic == 0:
        return QQ
    f = _prime_fields.get(characteristic)
    if f is None:
        f = _prime_fields[characteristic] = PrimeField(characteristic)
    return f
