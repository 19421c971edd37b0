"""The benchmark's four workloads: inputs, calls, and reference checks.

Each workload builds its inputs from the seed in ``__init__`` (the set-up
the benchmark times), exposes ``calls``, one round of user-level calls as
(label, thunk, items) triples that every round repeats unchanged, and
checks the outputs against ``reference`` after the timed phase.  A round
always attempts the same operations, so the share of failed operations is
the same in every run.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

import reference as ref

BAND = 1e-6  # labels whose reference value lies within BAND of 0 are not judged
PSD_BAND = 1e-7  # the same for fully fixed matrices, whose CSV inputs carry 9 digits
MAP_TOL = 1e-9


def section_grid(section: str, resolution: int) -> np.ndarray:
    """Grid points of a coordinate section that lie in the unit disc."""
    axes = {"p1p2": (0, 1), "p1p3": (0, 2), "p2p3": (1, 2)}[section]
    line = np.linspace(-1.0, 1.0, resolution)
    x, y = np.meshgrid(line, line, indexing="ij")
    keep = (x * x + y * y <= 1.0 + 1e-12).ravel()
    pts = np.zeros((keep.sum(), 3))
    pts[:, axes[0]] = x.ravel()[keep]
    pts[:, axes[1]] = y.ravel()[keep]
    return pts


def _spec(am, coeff: np.ndarray, free: np.ndarray | None = None):
    free = np.zeros(coeff.shape, dtype=bool) if free is None else free
    return am.basis.JointStateCoeffs(n=2, m=2, coeff=coeff, free=free)


class Workload:
    calls: list  # (label, thunk, items)

    def __init__(self):
        self.first: dict = {}
        self.mismatch: list[str] = []

    def failed_items(self, index: int, out) -> int:
        """Items of one call's output that count as failed operations."""
        return 0

    def record(self, index: int, out) -> None:
        """Keep the first round's output; later rounds must reproduce it."""
        key = self.fingerprint(out)
        if index not in self.first:
            self.first[index] = (out, key)
        elif key != self.first[index][1] and len(self.mismatch) < 5:
            self.mismatch.append(f"call {self.calls[index][0]} gave a different output in a later round")

    def fingerprint(self, out):
        return None

    def outputs(self):
        """(index, label, output) of each call's first successful output."""
        for index in sorted(self.first):
            yield index, self.calls[index][0], self.first[index][0]

    def check(self) -> list[str]:
        raise NotImplementedError


class DomainPartial(Workload):
    """sample_domain on the fig1 partial spec: the alternating-projection solver."""

    item = "probe"
    SECTION, RESOLUTION = "p1p2", 41

    def __init__(self, am, seed: int, workdir: str):
        super().__init__()
        coeff = np.full((4, 4), 0.25)
        coeff[0, 0] = 1.0
        coeff[1:, 0] = 0.0
        free = np.zeros((4, 4), dtype=bool)
        for j in (1, 2, 3):
            coeff[j, j] = 0.0
            free[j, j] = True
        self.coeff = coeff
        self.spec = _spec(am, coeff, free)
        self.grid = section_grid(self.SECTION, self.RESOLUTION)
        # Thunks look names up when called, so a traced run sees the wrappers.
        self.calls = [
            (
                f"section-{self.SECTION}",
                lambda: am.domains.sample_domain(self.spec, section=self.SECTION, resolution=self.RESOLUTION, seed=seed),
                len(self.grid),
            )
        ]

    def failed_items(self, index, out):
        return int((out.compat == -1).sum())

    def fingerprint(self, out):
        return out.compat.tobytes()

    def check(self):
        errors = []
        ops = ref.joint_operators(2, 2)
        free_ops = np.array([ops[j, j] for j in (1, 2, 3)]) / 4
        for _, label, out in self.outputs():
            if out.probes.shape != self.grid.shape or np.abs(out.probes - self.grid).max() > 1e-12:
                errors.append(f"{label}: probes differ from the section grid")
                continue
            coeff = np.broadcast_to(self.coeff, (len(self.grid), 4, 4)).copy()
            coeff[:, 1:, 0] = self.grid
            t_star, gap = ref.max_lambda_min(ref.state_from_coeffs(coeff, ops), free_ops)
            if gap > BAND / 10:
                errors.append(f"{label}: reference solver gap {gap:.1e} exceeds BAND/10")
            wrong_in = (out.compat == 1) & (t_star < -BAND)
            wrong_out = (out.compat == 0) & (t_star > BAND)
            for kind, mask in (("inside", wrong_in), ("outside", wrong_out)):
                for i in np.flatnonzero(mask)[:3]:
                    errors.append(f"{label}: probe {self.grid[i].tolist()} labelled {kind}, max lambda_min {t_star[i]:.3e}")
            if not np.isin(out.compat, (-1, 0, 1)).all() or not (out.pos == 1).all():
                errors.append(f"{label}: compat outside {{-1,0,1}} or pos not 1 without a map")
        return errors


class DomainFixed(Workload):
    """The domains subcommand on the fully fixed fig2 spec with an int-ham map."""

    item = "probe"
    SECTIONS = ("p1p2", "p1p3", "p2p3")
    RESOLUTION = 201

    def __init__(self, am, seed: int, workdir: str):
        super().__init__()
        coeff = np.zeros((4, 4))
        coeff[0, 0] = 1.0
        coeff[0, 1] = coeff[3, 1] = 1.0 / np.sqrt(3.0)
        self.coeff = coeff
        # gamma_1 near pi/2 and small gamma_2, gamma_3 make the positivity
        # domain cut the unit ball, so both pos labels occur and are checked.
        rng = np.random.default_rng(seed)
        self.gamma = np.concatenate([rng.uniform(np.pi / 4, 3 * np.pi / 4, 1), rng.uniform(-0.3, 0.3, 2)])
        spec = _spec(am, coeff)
        amap = am.qubit2.int_ham_map(am.qubit2.IntHamParams(gamma=tuple(self.gamma)), spec)
        self.spec_path = os.path.join(workdir, "spec.json")
        self.map_path = os.path.join(workdir, "map.json")
        with open(self.spec_path, "w") as fh:
            fh.write(spec.to_json())
        with open(self.map_path, "w") as fh:
            fh.write(am.maps.map_to_json(amap))
        res = str(self.RESOLUTION)
        common = ["domains", "--spec", self.spec_path, "--map", self.map_path, "--resolution", res, "--seed", str(seed)]
        self.calls, self.outs, self.grids = [], [], []
        for section in self.SECTIONS + ("volume",):
            out = os.path.join(workdir, section)
            argv = common + ["--out", out] + ([] if section == "volume" else ["--section", section])
            grid = None if section == "volume" else section_grid(section, self.RESOLUTION)
            items = 1 + (self.RESOLUTION // 4) * self.RESOLUTION if grid is None else len(grid)
            self.calls.append((section, (lambda argv=argv: am.cli.main(argv)), items))
            self.outs.append(out)
            self.grids.append(grid)

    def failed_items(self, index, out):
        return self.calls[index][2] if out != 0 else 0

    def record(self, index, out):
        digest = hashlib.sha256()
        for ext in (".csv", ".json"):
            with open(self.outs[index] + ext, "rb") as fh:
                digest.update(fh.read())
        super().record(index, (out, digest.hexdigest()))

    def fingerprint(self, out):
        return out

    def check(self):
        errors = []
        ops = ref.joint_operators(2, 2)
        u = ref.int_ham_unitary(self.gamma)
        for index, label, _ in self.outputs():
            base = self.outs[index]
            with open(base + ".csv") as fh:
                header = fh.readline().strip()
            rows = np.loadtxt(base + ".csv", delimiter=",", skiprows=1, ndmin=2)
            with open(base + ".json") as fh:
                side = json.load(fh)
            if header != "a1,a2,a3,compat,pos" or rows.shape != (self.calls[index][2], 5):
                errors.append(f"{label}: CSV header {header!r} or shape {rows.shape} unexpected")
                continue
            probes, compat, pos = rows[:, :3], rows[:, 3], rows[:, 4]
            grid = self.grids[index]
            if grid is not None and np.abs(probes - grid).max() > 1e-8:
                errors.append(f"{label}: CSV probes differ from the section grid")
            if (np.linalg.norm(probes, axis=1) > 1.0 + 1e-8).any():
                errors.append(f"{label}: probe outside the unit ball")
            if (
                side.get("resolution") != self.RESOLUTION
                or side.get("section") != (None if label == "volume" else label)
                or side.get("map") != self.map_path
                or not np.array_equal(np.asarray(side["spec"]["coeff"]), self.coeff)
            ):
                errors.append(f"{label}: sidecar does not record the inputs")
            coeff = np.broadcast_to(self.coeff, (len(probes), 4, 4)).copy()
            coeff[:, 1:, 0] = probes
            pi = ref.state_from_coeffs(coeff, ops)
            joint_min = np.linalg.eigvalsh(pi)[:, 0]
            image_min = np.linalg.eigvalsh(ref.evolve_reduced(u, pi, 2, 2))[:, 0]
            for name, flags, value in (("compat", compat, joint_min), ("pos", pos, image_min)):
                wrong = ((flags == 1) & (value < -PSD_BAND)) | ((flags == 0) & (value > PSD_BAND))
                wrong |= ~np.isin(flags, (0, 1))
                for i in np.flatnonzero(wrong)[:3]:
                    errors.append(f"{label}: {name}={flags[i]:.0f} at {probes[i].tolist()}, lambda_min {value[i]:.3e}")
        return errors


class Kappa(Workload):
    """kappa_search + bounds_sweep, as the kappa subcommand runs them, per family."""

    item = "trial"
    FAMILIES = ("int_ham", "lorentz", "random_unitary")
    TRIALS = 200

    def __init__(self, am, seed: int, workdir: str):
        super().__init__()
        self.am = am
        q2 = am.qubit2
        self.seeds = {fam: 10 * seed + i for i, fam in enumerate(self.FAMILIES)}
        self.calls = [
            (
                fam,
                (lambda fam=fam, s=s: (q2.kappa_search(fam, self.TRIALS, seed=s), q2.bounds_sweep(fam, self.TRIALS, seed=s + 1))),
                2 * self.TRIALS,
            )
            for fam, s in self.seeds.items()
        ]

    def fingerprint(self, out):
        search, sweep = out
        return (search.best_kappa_norm, json.dumps(search.witness), tuple(sweep))

    def _sweep_draws(self, family: str) -> tuple[object, list]:
        """Replay one family's sweep, keeping every (U, coefficients) it checks."""
        q2 = self.am.qubit2
        draws = []
        original = q2.kappa_bounds_check

        def capture(u, coeffs, *args, **kwargs):
            draws.append((u.copy(), coeffs.coeff.copy()))
            return original(u, coeffs, *args, **kwargs)

        q2.kappa_bounds_check = capture
        try:
            sweep = q2.bounds_sweep(family, self.TRIALS, seed=self.seeds[family] + 1)
        finally:
            q2.kappa_bounds_check = original
        return sweep, draws

    def check(self):
        errors = []
        ops = ref.joint_operators(2, 2)
        for _, family, (search, sweep) in self.outputs():
            w = search.witness
            if family == "int_ham":
                u = ref.int_ham_unitary(w["gamma"])
            elif family == "lorentz":
                u = ref.lorentz_unitary(w["r1"], w["r2"])
            else:
                arr = np.asarray(w["unitary"])
                u = arr[..., 0] + 1j * arr[..., 1]
            pi = ref.state_from_coeffs(np.asarray(w["coeff"]), ops)
            if np.abs(u.conj().T @ u - np.eye(4)).max() > MAP_TOL or np.linalg.eigvalsh(pi)[0] < -MAP_TOL or abs(np.trace(pi) - 1) > MAP_TOL:
                errors.append(f"{family}: witness is not a unitary and a state")
            norm = float(np.linalg.norm(ref.kappa_direct(u, pi)))
            if abs(norm - search.best_kappa_norm) > MAP_TOL or norm > ref.GOLDEN + MAP_TOL:
                errors.append(f"{family}: best |kappa| {search.best_kappa_norm!r}, witness evolves to {norm!r}")
            replay, draws = self._sweep_draws(family)
            if tuple(replay) != tuple(sweep) or len(draws) != self.TRIALS:
                errors.append(f"{family}: sweep replay differs from the timed sweep")
            norms = []
            for u_i, coeff in draws:
                pi_i = ref.state_from_coeffs(coeff, ops)
                norms.append(float(np.linalg.norm(ref.kappa_direct(u_i, pi_i))))
                a = float(np.linalg.norm(coeff[1:, 0]))
                if norms[-1] > min(np.sqrt(max(3.0 - a * a, 0.0)), 1.0 + a) + MAP_TOL:
                    errors.append(f"{family}: sweep draw violates the kappa bounds, |kappa| {norms[-1]:.6f}, |a| {a:.6f}")
                    break
            if draws and abs(max(norms) - sweep.max_kappa_norm) > MAP_TOL or sweep.ok != sweep.checked:
                errors.append(f"{family}: sweep reports max |kappa| {sweep.max_kappa_norm!r} ok {sweep.ok}/{sweep.checked}")
        return errors


class MapTomography(Workload):
    """extract_map -> representations -> JSON -> tomography, at N = 2 and 3."""

    item = "draw"
    DIMS = ((2, 2), (3, 2), (3, 3))
    POOL = 16  # calls per round; each call runs one draw at every dimension pair

    def __init__(self, am, seed: int, workdir: str):
        super().__init__()
        self.am = am
        rng = np.random.default_rng(seed)
        self.draws = []
        for _ in range(self.POOL):
            triple = []
            for n, m in self.DIMS:
                u = ref.haar_unitary(n * m, rng)
                pi = ref.full_rank_state(n * m, rng)
                other = ref.full_rank_state(n, rng)
                coeff = ref.coeffs_of_state(pi, ref.joint_operators(n, m))
                spec = am.basis.JointStateCoeffs(n=n, m=m, coeff=coeff, free=np.zeros(coeff.shape, dtype=bool))
                triple.append((n, m, u, pi, other, spec))
            self.draws.append(triple)
        self.calls = [(f"draw-{i}", (lambda t=t: [self._pipeline(*d) for d in t]), len(self.DIMS)) for i, t in enumerate(self.draws)]

    def _pipeline(self, n, m, u, pi, other, spec):
        mp, tom = self.am.maps, self.am.tomography
        pb = self.am.basis.product_basis(n, m)
        amap = mp.extract_map(u, pi, pb)
        _, is_cp = mp.choi_and_cp(amap)
        pm_ops, signs = mp.pm_decomposition(amap)
        bmat = mp.b_matrix(amap)
        text = mp.map_to_json(amap)
        back = mp.map_from_json(text)
        probes = tom.design_probes(spec, spec.coeff[1:, 0].copy())
        tom.evaluate_probes(probes, tom.map_oracle(back))
        recon = tom.reconstruct_map(probes)
        report = tom.validate_reconstruction(recon, amap)
        return dict(amap=amap, is_cp=is_cp, pm=(pm_ops, signs), bmat=bmat, text=text, back=back, recon=recon, report=report)

    def fingerprint(self, out):
        return tuple((o["text"], o["recon"].one_prime.tobytes(), o["recon"].f_primes.tobytes()) for o in out)

    def check(self):
        errors = []
        for index, label, outs in self.outputs():
            triple = self.draws[index]
            for (n, m, u, pi, other, _), out in zip(triple, outs):
                for msg in self._check_draw(n, m, u, pi, other, out):
                    errors.append(f"{label} ({n},{m}): {msg}")
        return errors

    def _check_draw(self, n, m, u, pi, other, out):
        amap, recon = out["amap"], out["recon"]
        g, k = amap.g_ops, amap.k_mat
        eye = np.eye(n)
        rho = ref.partial_trace_r(pi, n, m)

        def evolve(state):  # the map (U, Pi) defines, applied to a subsystem operator
            return ref.evolve_reduced(u, pi + np.kron(state - rho, np.eye(m) / m), n, m)

        def apply(q):  # L(Q) + K Tr Q from the extracted operators
            return np.einsum("aij,jk,alk->il", g, q, g.conj()) + k * np.trace(q)

        fs = ref.hermitian_basis(n)
        errs = []
        for state in (rho, other):
            if np.abs(apply(state) - evolve(state)).max() > MAP_TOL:
                errs.append("L(rho) + K differs from Tr_R[U Pi U^dag]")
        left = np.einsum("aji,ajk->ik", g.conj(), g)
        right = np.einsum("aij,akj->ik", g, g.conj())
        if max(np.abs(left - eye).max(), np.abs(right - eye).max()) > MAP_TOL:
            errs.append("completeness sums fail")
        units = np.eye(n * n).reshape(n * n, n, n)
        choi_l = np.block([[apply(units[j * n + i]) - k * (i == j) for i in range(n)] for j in range(n)])
        choi_full = np.block([[apply(units[j * n + i]) for i in range(n)] for j in range(n)])
        if np.linalg.eigvalsh(choi_l)[0] < -MAP_TOL:
            errs.append("the K = 0 part has a Choi matrix that is not PSD")
        full_min = np.linalg.eigvalsh(choi_full)[0]
        if abs(full_min) > PSD_BAND and out["is_cp"] != (full_min > 0):
            errs.append(f"choi_and_cp says {out['is_cp']}, Choi lambda_min {full_min:.3e}")
        q = other + 1j * np.diag(np.arange(n)) @ other  # a generic non-Hermitian operand
        pm_ops, signs = out["pm"]
        pm_q = sum(s * c @ q @ c.conj().T for c, s in zip(pm_ops, signs))
        if np.abs(pm_q - apply(q)).max() > MAP_TOL or np.abs(out["bmat"].apply(q) - apply(q)).max() > MAP_TOL:
            errs.append("pm_decomposition or b_matrix does not reproduce L(Q) + K Tr Q")
        k_sq = float(np.trace(k @ k).real)
        delta = self.am.maps.purity_delta(amap, eye / n)
        if k_sq <= 1e-12 or not delta > 0 or abs(delta - k_sq) > MAP_TOL:
            errs.append(f"purity change at the maximally mixed state {delta:.3e}, Tr K^2 {k_sq:.3e}")
        lo = apply(other) - k
        if np.trace(lo @ lo).real > np.trace(other @ other).real + MAP_TOL:
            errs.append("the K = 0 part increases purity")
        back = out["back"]
        if not (np.array_equal(back.g_ops, g) and np.array_equal(back.k_mat, k)):
            errs.append("JSON round trip is not exact")
        centre = evolve(eye / n)
        truth_one = n * centre
        truth_f = np.array([n * (evolve((eye + f) / n) - centre) for f in fs[1:]])
        dev = max(
            np.abs(recon.one_prime - truth_one).max(),
            np.abs(recon.f_primes - truth_f).max(),
            np.abs(recon.k_mat - (centre - eye / n)).max(),
        )
        if dev > MAP_TOL or not out["report"].passed:
            errs.append(f"reconstruction deviates by {dev:.3e} (report max_dev {out['report'].max_dev:.3e})")
        return errs


WORKLOADS = {
    "domain-partial": DomainPartial,
    "domain-fixed": DomainFixed,
    "kappa": Kappa,
    "map-tomography": MapTomography,
}
