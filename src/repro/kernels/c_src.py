"""C source of the fused step kernels — the compiled tier's only loop form.

Each kernel is a *transliteration* of the numpy hot path into plain
element loops; the numpy tier stays the semantics. ``cc_backend``
compiles this source once and loads it through ctypes.

* ``fused_dispatch`` — one post-management dispatch tick of a scheme
  family: request clamp, charger, KiBaM fleet step with aging, LVD,
  residual, optional fused uDEB shave/recharge.
* ``drain_block`` — up to ``n_steps`` quiescent steady-drain ticks.
  Each tick re-checks the read-only drain guards *before* touching
  state; a failed guard at tick ``s`` returns ``s`` with the state as
  the per-step path would leave it, and the caller runs tick ``s`` live.
* ``breaker_step`` — one ``BreakerBankState.step`` thermal tick after
  its input validation; returns the newly-tripped count.

The bit-identity argument is the same one the vectorized backend makes
against the scalar oracle:

* every transcendental (``exp``) and every derived *scalar* coefficient
  is computed once in Python by the caller — with the identical
  expression the numpy path uses — and passed in;
* all remaining per-element arithmetic is IEEE-754 float64 ``+ - * /``,
  comparisons and selections, in the numpy expressions' left-to-right
  evaluation order. The source is compiled with ``-O2
  -ffp-contract=off`` (no FMA contraction can re-associate anything),
  never ``-ffast-math`` or ``-march=native``;
* ``np.minimum``/``np.maximum`` become ``(a < b) ? a : b`` selections.
  That matches numpy bitwise for every non-NaN input pair except mixed
  signed zeros, which cannot reach these call sites: every min/max
  operand descends from ``max(0, ...)`` chains, positive configs, or
  subtractions of equal finite values (which round to ``+0.0``).

Boolean state travels as ``uint8`` views (shared memory with the numpy
``bool_`` arrays), event counters as ``int64``. Conventions shared by
all three kernels:

* arrays the numpy path mutates in place (``_discharged_j``,
  ``_charged_j``, ``_deep_discharge_events``, ``_shave_events``,
  ``_shaved_j``, breaker ``heat``/``tripped``) are mutated in place;
* arrays the numpy path *rebinds* (``_y1``, ``_y2``,
  ``_disconnected``, supercap ``_charge_j``, the offline-charger mask)
  are passed as caller-owned copies and written back by the glue, so no
  stale alias ever observes a half-step;
* scalar flags (the supercap ``_full`` latch) ride in ``int64[1]``
  scratch.
"""

SOURCE = r"""
#include <stdint.h>

#define EXPORT __attribute__((visibility("default")))

/* ``a if a < b else b`` — matches np.minimum on every operand pair the
 * kernels produce (no NaNs, no mixed signed zeros). */
static inline double dmin(double a, double b) { return a < b ? a : b; }

EXPORT int64_t fused_dispatch(
    int64_t n,
    const double *demand, const double *limits,
    int64_t request_mode, const double *request_raw,
    double *y1, double *y2,
    const double *capacity, const double *cap_avail,
    const double *cap_bound, uint8_t *disc,
    double *discharged_j, double *charged_j, int64_t *deep_events,
    double e, double one_minus_e, double one_minus_c, double kk,
    double cc, double shape_coef, double coeff_b, double dt,
    double max_discharge_w, double max_charge_w, double efficiency,
    double lvd_soc, double reconnect_soc,
    int64_t charger_mode, uint8_t *offline_state,
    double recharge_soc, double full_soc,
    int64_t udeb_mode, double *sc_charge, int64_t *sc_events,
    double *sc_shaved_j, int64_t *sc_flags,
    double sc_capacity, double sc_eff, double sc_max_power,
    double sc_max_charge, double sc_eff_dt,
    double *out_charge, double *out_delivered, double *out_udeb,
    double *out_udeb_charge, double *out_residual)
{
    int any_out = 0, any_in = 0, any_disc_pre = 0;
    for (int64_t i = 0; i < n; i++) {
        if (disc[i]) any_disc_pre = 1;
        double req;
        if (request_mode == 0) {
            req = 0.0;
        } else if (request_mode == 1) {
            double bd = demand[i] - limits[i];
            if (bd < 0.0) bd = 0.0;
            req = dmin(bd, demand[i]);
        } else {
            req = dmin(request_raw[i], demand[i]);
        }
        double y0 = y1[i] + y2[i];
        double mdp;
        if (coeff_b <= 0.0) {
            mdp = 0.0;
        } else {
            double coeff_a = y1[i] * e + (y0 * cc) * one_minus_e;
            mdp = coeff_a / coeff_b;
            if (mdp < 0.0) mdp = 0.0;
        }
        double lim = dmin(max_discharge_w, mdp);
        double deliverable = disc[i] ? 0.0 : lim;
        req = dmin(req, deliverable);
        if (req > 0.0) any_out = 1;
        double headroom = limits[i] - (demand[i] - req);
        int active = (req <= 0.0) && (headroom > 0.0);
        double mcp = (capacity[i] - (y1[i] + y2[i])) / dt;
        if (mcp < 0.0) mcp = 0.0;
        double bus_limit = mcp / efficiency;
        double mcv = dmin(max_charge_w, bus_limit);
        int eligible;
        if (charger_mode == 0) {
            eligible = active && headroom > 0.0;
        } else {
            int st = offline_state[i] != 0;
            double soc = (y1[i] + y2[i]) / capacity[i];
            int turn_on = active && !st && soc <= recharge_soc;
            int turn_off = active && st && soc >= full_soc;
            st = (st || turn_on) && !turn_off;
            offline_state[i] = (uint8_t)(st ? 1 : 0);
            eligible = active && st && headroom > 0.0;
        }
        double charge = eligible ? dmin(headroom, mcv) : 0.0;
        if (charge > 0.0) any_in = 1;
        out_charge[i] = charge;
        out_delivered[i] = req;  /* scratch for pass 2 */
    }
    for (int64_t i = 0; i < n; i++) {
        double req = out_delivered[i];
        int discharging = req > 0.0;
        double delivered = 0.0;
        if (any_out && discharging && !disc[i]) {
            double requested_out = dmin(req, max_discharge_w);
            double y0 = y1[i] + y2[i];
            double mdp;
            if (coeff_b <= 0.0) {
                mdp = 0.0;
            } else {
                double coeff_a = y1[i] * e + (y0 * cc) * one_minus_e;
                mdp = coeff_a / coeff_b;
                if (mdp < 0.0) mdp = 0.0;
            }
            delivered = dmin(requested_out, mdp);
        }
        int charging = 0;
        double power;
        if (any_in) {
            double inn = out_charge[i];
            charging = inn > 0.0;
            double bus_power = dmin(inn, max_charge_w);
            double cell_request = 0.0;
            if (charging) {
                double mcp = (capacity[i] - (y1[i] + y2[i])) / dt;
                if (mcp < 0.0) mcp = 0.0;
                cell_request = dmin(bus_power * efficiency, mcp);
            }
            power = delivered - cell_request;
        } else {
            power = delivered;
        }
        double before = y1[i] + y2[i];
        double y0 = before;
        double y1n = y1[i] * e
            + (((y0 * kk) * cc) - power) * one_minus_e / kk
            - (power * cc) * shape_coef;
        double y2n = y2[i] * e
            + (y0 * one_minus_c) * one_minus_e
            - (power * one_minus_c) * shape_coef;
        if (y1n < 0.0) y1n = 0.0;
        y1[i] = dmin(y1n, cap_avail[i]);
        if (y2n < 0.0) y2n = 0.0;
        y2[i] = dmin(y2n, cap_bound[i]);
        if (any_in) {
            double stored = ((y1[i] + y2[i]) - before) / dt;
            double accepted = charging ? stored / efficiency : 0.0;
            charged_j[i] += accepted * dt;
        }
        if (any_out) discharged_j[i] += delivered * dt;
        double soc = (y1[i] + y2[i]) / capacity[i];
        int opening = !disc[i] && soc <= lvd_soc;
        int closing = disc[i] && soc >= reconnect_soc;
        if (any_out && any_disc_pre) {
            int masked_out = !(discharging && disc[i]);
            opening = opening && masked_out;
            closing = closing && masked_out;
        }
        if (opening) {
            disc[i] = 1;
            deep_events[i] += 1;
        } else if (closing) {
            disc[i] = 0;
        }
        out_delivered[i] = delivered;
    }
    int any_asked = 0, any_headroom = 0;
    for (int64_t i = 0; i < n; i++) {
        double local_need = demand[i] - limits[i];
        if (local_need < 0.0) local_need = 0.0;
        double residual = local_need - out_delivered[i];
        if (residual < 0.0) residual = 0.0;
        out_residual[i] = residual;
        if (residual > 0.0) {
            any_asked = 1;
            out_udeb_charge[i] = 0.0;
        } else {
            double hu = limits[i] - demand[i];
            if (hu < 0.0) hu = 0.0;
            out_udeb_charge[i] = hu;  /* scratch: recharge headroom */
            if (hu > 0.0) any_headroom = 1;
        }
    }
    if (udeb_mode == 0) {
        for (int64_t i = 0; i < n; i++) {
            out_udeb[i] = 0.0;
            out_udeb_charge[i] = 0.0;
        }
        return 0;
    }
    if (any_asked) {
        for (int64_t i = 0; i < n; i++) {
            double excess = out_residual[i];
            double shaved = 0.0;
            if (excess > 0.0) {
                double energy_limit = (sc_charge[i] * sc_eff) / dt;
                double mds = dmin(sc_max_power, energy_limit);
                shaved = dmin(excess, mds);
            }
            int fired = shaved > 0.0;
            double drained = sc_charge[i] - (shaved * dt) / sc_eff;
            if (drained < 0.0) drained = 0.0;
            if (fired) {
                sc_charge[i] = drained;
                sc_events[i] += 1;
            }
            sc_shaved_j[i] += shaved * dt;
            out_udeb[i] = shaved;
        }
        sc_flags[0] = 0;
    } else {
        for (int64_t i = 0; i < n; i++) out_udeb[i] = 0.0;
    }
    if (sc_flags[0] != 0 || !any_headroom) {
        for (int64_t i = 0; i < n; i++) out_udeb_charge[i] = 0.0;
        return 0;
    }
    int all_full = 1;
    for (int64_t i = 0; i < n; i++) {
        double hu = out_udeb_charge[i];
        double accepted = 0.0;
        if (hu > 0.0) {
            double headroom_j = sc_capacity - sc_charge[i];
            double bus_limit = headroom_j / sc_eff_dt;
            double mcs = dmin(sc_max_charge, bus_limit);
            accepted = dmin(hu, mcs);
            double filled = sc_charge[i] + (accepted * sc_eff) * dt;
            if (filled > sc_capacity) filled = sc_capacity;
            sc_charge[i] = filled;
        }
        out_udeb_charge[i] = accepted;
        if (!(sc_charge[i] >= sc_capacity)) all_full = 0;
    }
    sc_flags[0] = all_full ? 1 : 0;
    return 0;
}

EXPORT int64_t drain_block(
    int64_t n_steps, int64_t n,
    const double *request, const double *headroom,
    const uint8_t *active, const double *residual,
    const double *headroom_udeb,
    int64_t n_cap, const int64_t *cap_idx, const double *cap_need,
    double *y1, double *y2,
    const double *capacity, const double *cap_avail,
    const double *cap_bound, uint8_t *disc,
    double *discharged_j, double *charged_j, int64_t *deep_events,
    double e, double one_minus_e, double one_minus_c, double kk,
    double cc, double shape_coef, double coeff_b, double dt,
    double max_discharge_w, double max_charge_w, double efficiency,
    double lvd_soc, double reconnect_soc,
    int64_t charger_mode, uint8_t *offline_state,
    double recharge_soc, double full_soc,
    int64_t udeb_mode, double *sc_charge, int64_t *sc_events,
    double *sc_shaved_j, int64_t *sc_flags,
    double sc_capacity, double sc_eff, double sc_max_power,
    double sc_max_charge, double sc_eff_dt,
    double *charge_rows, double *udeb_rows, double *udeb_charge_rows,
    double *soc_rows)
{
    int any_out = 0;
    for (int64_t i = 0; i < n; i++)
        if (request[i] > 0.0) { any_out = 1; break; }
    int any_asked = 0, any_headroom = 0;
    if (udeb_mode == 1) {
        for (int64_t i = 0; i < n; i++) {
            if (residual[i] > 0.0) any_asked = 1;
            if (headroom_udeb[i] > 0.0) any_headroom = 1;
        }
    }
    for (int64_t s = 0; s < n_steps; s++) {
        int ok = 1;
        for (int64_t i = 0; i < n; i++) {
            double y0 = y1[i] + y2[i];
            double mdp;
            if (coeff_b <= 0.0) {
                mdp = 0.0;
            } else {
                double coeff_a = y1[i] * e + (y0 * cc) * one_minus_e;
                mdp = coeff_a / coeff_b;
                if (mdp < 0.0) mdp = 0.0;
            }
            double lim = dmin(max_discharge_w, mdp);
            double deliverable = disc[i] ? 0.0 : lim;
            if (deliverable < request[i]) { ok = 0; break; }
        }
        if (ok && n_cap > 0) {
            for (int64_t j = 0; j < n_cap; j++) {
                int64_t i = cap_idx[j];
                double y0 = y1[i] + y2[i];
                double mdp;
                if (coeff_b <= 0.0) {
                    mdp = 0.0;
                } else {
                    double coeff_a = y1[i] * e + (y0 * cc) * one_minus_e;
                    mdp = coeff_a / coeff_b;
                    if (mdp < 0.0) mdp = 0.0;
                }
                double lim = dmin(max_discharge_w, mdp);
                double deliverable = disc[i] ? 0.0 : lim;
                if (deliverable < cap_need[j]) { ok = 0; break; }
            }
        }
        if (!ok) return s;
        int64_t row = s * n;
        int any_in = 0, any_disc_pre = 0;
        for (int64_t i = 0; i < n; i++) {
            if (disc[i]) any_disc_pre = 1;
            double mcp = (capacity[i] - (y1[i] + y2[i])) / dt;
            if (mcp < 0.0) mcp = 0.0;
            double bus_limit = mcp / efficiency;
            double mcv = dmin(max_charge_w, bus_limit);
            int act = active[i] != 0;
            int eligible;
            if (charger_mode == 0) {
                eligible = act && headroom[i] > 0.0;
            } else {
                int st = offline_state[i] != 0;
                double soc = (y1[i] + y2[i]) / capacity[i];
                int turn_on = act && !st && soc <= recharge_soc;
                int turn_off = act && st && soc >= full_soc;
                st = (st || turn_on) && !turn_off;
                offline_state[i] = (uint8_t)(st ? 1 : 0);
                eligible = act && st && headroom[i] > 0.0;
            }
            double charge = eligible ? dmin(headroom[i], mcv) : 0.0;
            if (charge > 0.0) any_in = 1;
            charge_rows[row + i] = charge;
        }
        for (int64_t i = 0; i < n; i++) {
            double req = request[i];
            int discharging = req > 0.0;
            double delivered = 0.0;
            if (any_out && discharging && !disc[i]) {
                double requested_out = dmin(req, max_discharge_w);
                double y0 = y1[i] + y2[i];
                double mdp;
                if (coeff_b <= 0.0) {
                    mdp = 0.0;
                } else {
                    double coeff_a = y1[i] * e + (y0 * cc) * one_minus_e;
                    mdp = coeff_a / coeff_b;
                    if (mdp < 0.0) mdp = 0.0;
                }
                delivered = dmin(requested_out, mdp);
            }
            int charging = 0;
            double power;
            if (any_in) {
                double inn = charge_rows[row + i];
                charging = inn > 0.0;
                double bus_power = dmin(inn, max_charge_w);
                double cell_request = 0.0;
                if (charging) {
                    double mcp = (capacity[i] - (y1[i] + y2[i])) / dt;
                    if (mcp < 0.0) mcp = 0.0;
                    cell_request = dmin(bus_power * efficiency, mcp);
                }
                power = delivered - cell_request;
            } else {
                power = delivered;
            }
            double before = y1[i] + y2[i];
            double y0 = before;
            double y1n = y1[i] * e
                + (((y0 * kk) * cc) - power) * one_minus_e / kk
                - (power * cc) * shape_coef;
            double y2n = y2[i] * e
                + (y0 * one_minus_c) * one_minus_e
                - (power * one_minus_c) * shape_coef;
            if (y1n < 0.0) y1n = 0.0;
            y1[i] = dmin(y1n, cap_avail[i]);
            if (y2n < 0.0) y2n = 0.0;
            y2[i] = dmin(y2n, cap_bound[i]);
            if (any_in) {
                double stored = ((y1[i] + y2[i]) - before) / dt;
                double accepted = charging ? stored / efficiency : 0.0;
                charged_j[i] += accepted * dt;
            }
            if (any_out) discharged_j[i] += delivered * dt;
            double soc = (y1[i] + y2[i]) / capacity[i];
            int opening = !disc[i] && soc <= lvd_soc;
            int closing = disc[i] && soc >= reconnect_soc;
            if (any_out && any_disc_pre) {
                int masked_out = !(discharging && disc[i]);
                opening = opening && masked_out;
                closing = closing && masked_out;
            }
            if (opening) {
                disc[i] = 1;
                deep_events[i] += 1;
            } else if (closing) {
                disc[i] = 0;
            }
            soc_rows[row + i] = (y1[i] + y2[i]) / capacity[i];
        }
        if (udeb_mode == 1) {
            if (any_asked) {
                for (int64_t i = 0; i < n; i++) {
                    double excess = residual[i];
                    double shaved = 0.0;
                    if (excess > 0.0) {
                        double energy_limit = (sc_charge[i] * sc_eff) / dt;
                        double mds = dmin(sc_max_power, energy_limit);
                        shaved = dmin(excess, mds);
                    }
                    int fired = shaved > 0.0;
                    double drained = sc_charge[i] - (shaved * dt) / sc_eff;
                    if (drained < 0.0) drained = 0.0;
                    if (fired) {
                        sc_charge[i] = drained;
                        sc_events[i] += 1;
                    }
                    sc_shaved_j[i] += shaved * dt;
                    udeb_rows[row + i] = shaved;
                }
                sc_flags[0] = 0;
            } else {
                for (int64_t i = 0; i < n; i++) udeb_rows[row + i] = 0.0;
            }
            if (sc_flags[0] != 0 || !any_headroom) {
                for (int64_t i = 0; i < n; i++)
                    udeb_charge_rows[row + i] = 0.0;
            } else {
                int all_full = 1;
                for (int64_t i = 0; i < n; i++) {
                    double hu = headroom_udeb[i];
                    double accepted = 0.0;
                    if (hu > 0.0) {
                        double headroom_j = sc_capacity - sc_charge[i];
                        double bus_limit = headroom_j / sc_eff_dt;
                        double mcs = dmin(sc_max_charge, bus_limit);
                        accepted = dmin(hu, mcs);
                        double filled =
                            sc_charge[i] + (accepted * sc_eff) * dt;
                        if (filled > sc_capacity) filled = sc_capacity;
                        sc_charge[i] = filled;
                    }
                    udeb_charge_rows[row + i] = accepted;
                    if (!(sc_charge[i] >= sc_capacity)) all_full = 0;
                }
                sc_flags[0] = all_full ? 1 : 0;
            }
        }
    }
    return n_steps;
}

EXPORT int64_t breaker_step(
    int64_t n, const double *power, const double *rated,
    double *heat, uint8_t *tripped, uint8_t *newly,
    double dt, double e_cool, double instant_trip_ratio,
    double trip_energy)
{
    int any_over = 0, any_tripped = 0;
    for (int64_t i = 0; i < n; i++) {
        if (power[i] / rated[i] > 1.0) any_over = 1;
        if (tripped[i]) any_tripped = 1;
    }
    if (!any_over && !any_tripped) {
        for (int64_t i = 0; i < n; i++) heat[i] *= e_cool;
        return 0;
    }
    int64_t count = 0;
    for (int64_t i = 0; i < n; i++) {
        newly[i] = 0;
        if (tripped[i]) continue;
        double ratio = power[i] / rated[i];
        if (ratio >= instant_trip_ratio) {
            tripped[i] = 1;
            newly[i] = 1;
            count++;
        } else if (ratio > 1.0) {
            heat[i] += (ratio * ratio - 1.0) * dt;
            if (heat[i] >= trip_energy) {
                tripped[i] = 1;
                newly[i] = 1;
                count++;
            }
        } else {
            heat[i] *= e_cool;
        }
    }
    return count;
}
"""
