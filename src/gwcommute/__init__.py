"""Verification toolkit for commutation of monomial weights with the
Gauss-Weierstrass semigroup e^{w*Laplacian}, w complex with re w > 0.

Layout:
    multiindex  exact multi-index arithmetic and enumeration
    laurent     big-integer Laurent polynomials in the parameter w
    hermite     Hermite polynomials attached to exp(-|x|^2/w), exact
    grid        sampled complex functions on uniform boxes, L^p norms, weights
    semigroup   e^{w*Laplacian} by Fourier multiplier and by quadrature;
                [eta, e^{w*Laplacian}] for a sampled weight eta; the one
                Fourier-multiplier step
    commutator  three independent evaluators of [x^a, e^{w*Laplacian}]
    estimates   explicit constants and weighted-norm estimate checks
    cgl         complex Ginzburg-Landau decay/growth experiment
    catalog     seeded test-function catalog
    config      suite config and subcommand inputs, strictly validated
    reporting   report rows and deterministic CSV artifacts
    parallel    ordered fan-out over independent cases (GW_THREADS)
    cli         command-line entry point
"""

__version__ = "0.1.0"
