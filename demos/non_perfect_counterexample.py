"""Where the head-count criterion breaks: a field missing square roots.

GF(2)(x) has characteristic 2 but is not perfect: x is nobody's square
(squares of rational functions only contain even powers of x).  The
form X1^2 + X2^2 has two nonzero coefficients, which over any perfect
field would make it universal, yet it cannot reach [[x,0],[0,0]].  The
proof is a trace computation: in characteristic 2 the diagonal sum of
X1^2 + X2^2 is always the square (x1+w1+x2+w2)^2, so a target whose
diagonal sum is a non-square is out of reach.
"""

from m2forms import (
    Mat2,
    NotASquareError,
    RationalFunctionField2,
    decide_universality,
    decompose,
    f2x_counterexample,
)
from m2forms.universality import f2x_necessary_condition


def main():
    F2X = RationalFunctionField2()
    x = F2X.parse("x")

    print("squares in GF(2)(x) contain only even powers:")
    for text in ["x^2", "x^4+x^2", "(x^2)/(x^4+1)", "x", "x^3", "(x)/(x^2+1)"]:
        f = F2X.parse(text)
        if f.is_square():
            print(f"  {str(f):<16} = ({f.sqrt()})^2")
        else:
            print(f"  {str(f):<16} has no square root")

    form, target = f2x_counterexample()
    print(f"\nthe counterexample: {form} over {form.field}, target {target}")
    verdict = decide_universality(form)
    print(f"  head-count verdict: {verdict.status} ({verdict.reason})")
    print(f"  diagonal sum p+s = {target.e11 + target.e22}")
    print(f"  necessary condition (p+s is a square): {f2x_necessary_condition(target)}")

    try:
        decompose(form, target)
    except NotASquareError as err:
        print(f"  solver says: NotASquare({err.element})")

    print("\nchange the target so p+s = x^2 and the same solver succeeds:")
    fixed = Mat2.of(F2X, [["x^2", 0], [0, 0]])
    result = decompose(form, fixed)
    x1, x2 = result.matrices
    print(f"  target {fixed}")
    print(f"  X1 = {x1}")
    print(f"  X2 = {x2}")
    print(f"  X1^2 + X2^2 == target: {form.evaluate(result.matrices) == fixed}")

    print("\nso universality needs the perfectness hypothesis, not just char 2:")
    print(f"  is x a square here?      {x.is_square()}")
    print(f"  is x^2 a square here?    {(x * x).is_square()}")


if __name__ == "__main__":
    main()
