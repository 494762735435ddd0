(** The def-use lint behind Exo-check, shared by the X3K and VIA32
    control-flow graphs and run on {!Exochi_isa.Cfg}'s solvers.

    The lint rules EXO008–EXO010 are written once here, over per-ISA
    {!facts}: which slots an instruction reads and writes, which lanes a
    write overwrites, the slots defined on entry, the uses that are not
    real reads, and which instructions have effects beyond their
    writes. Only the facts and the message text differ per ISA. *)

(** [reaching_def cfg ~defines u] walks backwards from instruction [u],
    stopping at the instructions [defines] accepts. [Some d] when [d] is
    the only such instruction reached and every path from an entry
    passes one; [None] otherwise. *)
val reaching_def :
  Exochi_isa.Cfg.t -> defines:(int -> bool) -> int -> int option

(** Per-instruction facts of one program. Slots are integers chosen by
    the ISA front end; every array has one entry per instruction. *)
type facts = {
  cfg : Exochi_isa.Cfg.t;
  uses : int list array; (* slots read, sorted; a read covers every lane *)
  defs : (int * int) list array;
      (* slots written, each with the lanes the write overwrites
         ({!Exochi_isa.Cfg.all_lanes} for the whole slot) *)
  predicated : bool array; (* the writes happen only if a predicate fires *)
  synthetic : bool array; (* the uses are not real reads (EXO008 is quiet) *)
  pure : bool array; (* no effect beyond [defs]: a dead-store candidate *)
  entry_defined : int list; (* slots defined when the program starts *)
  uninit_names : int list -> string list;
      (* names for the sorted slots an instruction may read uninitialized *)
  opcode : int -> string; (* mnemonic of an instruction, for messages *)
  loc : int -> Exochi_isa.Loc.t; (* where an instruction's findings go *)
}

(** EXO008 (possibly-uninitialized reads), EXO009 (dead stores: writes
    none of whose lanes is read before being overwritten) and EXO010
    (one finding per run of unreachable instructions), in that order. *)
val lint : facts -> Finding.t list
