"""Small- and large-radius series for the stress, checked against quadrature.

Near the center the profile is an even power series in r (with log-weighted
companions in odd dimensions).  Far out it decays in inverse powers, four
powers per row.  The match report evaluates the truncated large-r series
against direct numerics and confirms the residual sits inside the first
dropped row's bound.
"""

from casimir_harmonic import (
    HarmonicConfig,
    VChartFamily,
    asymptotic_match_report,
    build_P_polynomials,
    large_r_expansion,
    small_r_expansion,
    xi_conformal,
)

d = 1
print(f"Small-radius rows, d={d}, tt component, conformal part:")
# P0 and P1 come stacked from one ladder pass; the t0 profile carries both
# the plain and the ln-tau integrals (P1 vanishes in even d), and one
# quadrature call takes every tau-moment of both
series = small_r_expansion(build_P_polynomials(d, "tt", xi_conformal(d)), 3, tol=1e-10)
for row, err in zip(series.rows, series.remainder["coefficient_errors"]):
    tag = " * ln r^2" if row.has_log else ""
    print(f"  r^{int(row.r_power)}: {row.coefficient:+.10f}{tag}  (quadrature error {err:.1e})")
print(f"  valid for {series.remainder['validity']}, remainder "
      f"O(r^{int(series.remainder['r_power'])})")

print()
print(f"Large-radius rows (same profile):")
family = VChartFamily(d, "tt", xi_conformal(d))
limit = large_r_expansion(family)
for row in limit.rows:
    tag = " * ln r^2" if row.has_log else ""
    print(f"  r^{int(row.r_power)}: {row.coefficient:+.10f}{tag}")

print()
print("Matching the truncated large-r series against direct quadrature:")
cfg = HarmonicConfig(d=d, k=1.0, kappa=1.0, xi=xi_conformal(d))
report = asymptotic_match_report(cfg, "tt", "diamond", [5.0, 7.0, 9.0])
print(f"{'r':>5} {'numeric':>15} {'series':>15} {'|diff|':>11} {'bound':>11}")
for entry in report["rows"]:
    print(f"{entry['r']:>5.1f} {entry['numeric']:>15.6e} "
          f"{entry['series']:>15.6e} {entry['abs_diff']:>11.2e} "
          f"{entry['bound']:>11.2e}")
print(f"log-log residual slopes: "
      + " ".join(f"{s:.2f}" for s in report["slopes"]))
print("(each row is 4 powers down, so the residual of a depth-N truncation")
print(" should decay at least as fast as the first dropped row)")
