"""Key-rate analysis and simulation for measure-resend semi-quantum key
distribution under collective attacks."""

__version__ = "0.1.0"
