(** Write-through snooping-invalidate coherence over a shared data
    window.

    Cores keep full private memories in their {!Pf_arm.Exec.t} states;
    after a core stores into [\[base, limit)], {!post_store} copies the
    containing aligned word(s) from the writer's state into every other
    core's state ({!Pf_arm.Exec.load_word}/{!Pf_arm.Exec.store_word}) and
    invalidates the affected line(s) in every other core's private
    D-cache ({!Pf_cache.Icache.invalidate_addr}).  One store becomes
    globally visible before the next scheduler slice, so the shared
    window is sequentially consistent — the operational {!Model} with
    store-buffer capacity 0 (the litmus suite checks exactly this).

    Stores to [sync_addr] ({!Pf_kir.Build.fence} markers) are counted as
    fences; under write-through they drain nothing, but a store-buffer
    (TSO) layer would drain at the same marker. *)

type stats = {
  mutable stores_through : int;   (** shared-window stores propagated *)
  mutable words_propagated : int; (** words copied to other cores *)
  mutable invalidations : int;    (** D-cache lines snooped out *)
  mutable fences : int;           (** [sync_addr] stores observed *)
}

type t

val create :
  ?sync_addr:int ->
  base:int ->
  limit:int ->
  states:Pf_arm.Exec.t array ->
  dcaches:Pf_cache.Icache.t array ->
  unit ->
  t
(** [states.(i)]/[dcaches.(i)] belong to core [i]; the arrays must have
    equal length.  [sync_addr] defaults to [-1] (no fence marker).
    Raises [Invalid_config] on an inverted window or mismatched
    arrays. *)

val in_shared : t -> addr:int -> bool

val post_store : t -> core:int -> addr:int -> words:int -> unit
(** Propagate the store core [core] just executed at [addr] ([words]
    words, [0]/[1] for scalar stores — byte and half stores propagate
    their containing word).  Outside the shared window: no-op. *)

val stats : t -> stats
