"""Tour of the weighting shape functions and their classifying conditions.

The Petrov-Galerkin scheme is parameterized by a single shape function psi on
[0, 1].  Four conditions sort the candidates:

  localization   psi(0) = 0, psi(1) = 1
  orthogonality  int (1-t) psi(t) dt = 0      (cross mass becomes diagonal)
  fv_compat      int t psi(t) dt = 1/2        (that diagonal = dual widths)
  interp_compat  psi(t) + psi(1-t) = 1        (reflection identity)

The affine choice recovers the classical mixed scheme; the unique cubic that
satisfies the first three recovers the finite-volume scheme; adding a
symmetric quartic bump keeps the first three but breaks the fourth, which is
exactly what the stability demo (04) punishes.
"""

from fvpg1d import (builtin_affine, builtin_spline, condition_report,
                    design_cubic, moments, perturbed_family,
                    stability_constants)


def describe(psi):
    print(f"psi = {psi.label}")
    print(f"  coefficients (low to high): {list(psi.coefficients)}")
    report = condition_report(psi)
    for name, value in report.as_dict().items():
        print(f"  {name:<14s} {'yes' if value else 'no'}")
    m = moments(psi)
    print(f"  moments: m_psi={m.m_psi:.6f}  m1={m.m1:.6f}  m0={m.m0:.6f}")
    print(f"           s={m.s:.6f}  c={m.c:.6f}  sd={m.sd:.6f}  cd={m.cd:.6f}")
    k = stability_constants(m)
    print(f"  constants: delta={k.delta:.6f}  delta_tilde={k.delta_tilde:.6f}"
          f"  epsilon={k.epsilon:.6f}  K={k.K:.6f}")
    print()


def main():
    print("=" * 72)
    print("1. The affine weighting: classical mixed finite elements")
    print("=" * 72)
    describe(builtin_affine())

    print("=" * 72)
    print("2. The cubic weighting, derived from its moment conditions")
    print("=" * 72)
    derived = design_cubic()
    print("solving  int psi = 1/2,  int t psi = 1/2  over the ansatz")
    print("psi(t) = t (1 + a (1-t) + b (1-t)^2)  gives a = 10, b = -20:\n")
    describe(derived)
    builtin = builtin_spline()
    same = all(abs(x - y) < 1e-12
               for x, y in zip(derived.coefficients, builtin.coefficients))
    print(f"matches the built-in spline: {same}\n")

    print("=" * 72)
    print("3. Perturbations: breaking the reflection identity on purpose")
    print("=" * 72)
    print("psi_c = spline + c * t(1-t)(1 - 5 t(1-t)) keeps localization,")
    print("orthogonality and fv_compat for every c, but interp_compat only")
    print("at c = 0. Watch epsilon = sd - cd grow like 2 c^2 / 7:\n")
    for c in (0.0, 0.5, 1.0, 2.0):
        psi = perturbed_family(c)
        k = stability_constants(moments(psi))
        flags = condition_report(psi).as_dict()
        print(f"  c={c:<4g} epsilon={k.epsilon:<12.6f} "
              f"interp_compat={'yes' if flags['interp_compat'] else 'no'}")
    print("\nepsilon is the lever arm of the instability demo (04).")


if __name__ == "__main__":
    main()
