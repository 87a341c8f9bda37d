(** Static barrier-safety and shared-memory race checking over the IR
    (in the spirit of GPUVerify, scaled to this IR's structured
    regions). The thread-parallel body is partitioned into barrier
    epochs; per-epoch shared accesses are summarized as
    thread-index-affine indices plus guard stacks and discharged
    pairwise with the {!Affine} decision procedures over two renamed
    thread instances. Sound direction: diagnostics may over-report
    (warnings for unknown indices), never under-report races the
    affine domain can express. Each pair is decided once per process:
    verdicts are memoized under the pair's canonical form (symbols
    renamed by first appearance) and computed from that form only, so
    no result depends on what was checked before or in parallel. *)

open Pgpu_ir

(** Check one GPU wrapper region. [const_of] resolves opaque SSA
    values to compile-time constants where the host code pins them
    (e.g. CSE'd sizes); [kernel] names the diagnostics. *)
val check_region :
  ?const_of:(Value.t -> int option) -> kernel:string -> Instr.block -> Report.diagnostic list

(** Check every kernel launch region of a module, resolving host
    constants per wrapper. *)
val check_modul : Instr.modul -> Report.diagnostic list

(** Forget every memoized pair verdict. Verdicts are a pure function of
    their canonical pair, so this changes no result, only the work the
    next checks do; tests use it to compare cold and warm checks. *)
val clear_verdicts : unit -> unit
