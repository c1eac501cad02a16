(* The paper's own running example: CRC32 (Figure 2 shows the instruction
   formats FITS synthesizes for it).  This example prints the complete
   synthesized ISA — opcode groups, sub-operations, immediate policies —
   the head of the immediate dictionary, and a side-by-side disassembly of
   the first instructions of both binaries.

     dune exec examples/crc32_synthesis.exe *)

let () =
  let bench = Pf_mibench.Registry.find "crc32" in
  let program = bench.Pf_mibench.Registry.program ~scale:1 in
  let image = Pf_armgen.Compile.program program in
  let tr = (Pf_fits.Synthesis.flow image).Pf_fits.Synthesis.tr in
  let spec = tr.Pf_fits.Translate.spec in

  print_endline "=== synthesized instruction set for CRC32 ===";
  print_string (Pf_fits.Spec.describe spec);

  print_endline "\n=== immediate dictionary (head) ===";
  Array.iteri
    (fun idx v -> if idx < 16 then Printf.printf "  [%2d] 0x%08x\n" idx v)
    spec.Pf_fits.Spec.dict;

  print_endline "\n=== first 24 FITS instructions ===";
  let lines = String.split_on_char '\n' (Pf_fits.Translate.disassemble tr) in
  List.iteri (fun k l -> if k < 24 then print_endline l) lines;

  print_endline "\n=== mapping summary ===";
  let st = tr.Pf_fits.Translate.stats in
  Printf.printf "ARM instructions: %d, FITS instructions: %d\n"
    st.Pf_fits.Translate.arm_insns st.Pf_fits.Translate.fits_insns;
  Printf.printf "one-to-one: %.1f%% static\n"
    (Pf_fits.Translate.static_mapping_rate tr);
  Printf.printf "code: %d B (ARM) -> %d B (FITS)\n"
    st.Pf_fits.Translate.code_bytes_arm
    st.Pf_fits.Translate.code_bytes_fits;
  (* compare against the fixed-encoding Thumb baseline of Figure 5 *)
  let thumb = Pf_thumb.Translate.estimate image in
  Printf.printf "Thumb estimate: %d B (%.1f%% saving vs FITS' %.1f%%)\n"
    thumb.Pf_thumb.Translate.thumb_bytes
    (Pf_thumb.Translate.size_saving thumb)
    (Pf_fits.Translate.code_size_saving tr)
